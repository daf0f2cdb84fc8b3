import hashlib
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from levyfp import cli, config, forward, particles
from levyfp.cli import main
from levyfp.config import (
    ConfigError,
    canonical_json,
    config_hash,
    format_float,
    parse_config,
    parse_weight,
)
from levyfp.particles import _ParticleStepper

FAST_FORWARD = {
    "experiment": "forward-decay",
    "grid.n": 256,
    "grid.half_width": 12.0,
    "initial.kind": "gaussian-difference",
    "time.dt": 0.002,
    "time.t_final": 3.0,
    "time.stride": 25,
    "weights": ["pow0.5"],
    "seed": 3,
}


def write_config(tmp_path, name, **overrides):
    data = {**FAST_FORWARD, **overrides}
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


# ---------------------------------------------------------------------------
# parsing and validation


def test_parse_fills_defaults():
    cfg = parse_config({"experiment": "forward-decay"})
    assert cfg["grid.n"] == 1024
    assert cfg["time.dt"] == 1e-3
    assert cfg["weights"] == ["pow0.5"]
    assert cfg.grid.half_width == 16.0
    # the default drift is OU with alpha 1: b(t, x) = x at every t
    assert cfg.generator.drift(0.7, [-2.0, 0.5, 3.0]).tolist() == [-2.0, 0.5, 3.0]
    assert not cfg.generator.is_time_dependent


def test_parse_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys: nope.key"):
        parse_config({"experiment": "forward-decay", "nope.key": 1})


def test_parse_rejects_missing_experiment():
    with pytest.raises(ConfigError, match="experiment"):
        parse_config({})


def test_parse_type_errors():
    with pytest.raises(ConfigError, match="grid.n"):
        parse_config({"experiment": "forward-decay", "grid.n": 1.5})
    with pytest.raises(ConfigError, match="weights"):
        parse_config({"experiment": "forward-decay", "weights": "pow0.5"})
    with pytest.raises(ConfigError, match="must be one of"):
        parse_config({"experiment": "warp-drive"})
    for limiter in ("superbee", "minmod", "fromm"):
        with pytest.raises(ConfigError, match="solver.limiter: must be one of mc, off, got"):
            parse_config({"experiment": "forward-decay", "solver.limiter": limiter})


def test_parse_surfaces_constructor_refusals():
    # grid resolution constraint comes from the Grid type itself
    with pytest.raises(ConfigError):
        parse_config({"experiment": "forward-decay", "grid.n": 300})
    with pytest.raises(ConfigError):
        parse_config({"experiment": "forward-decay", "levy.kind": "fractional", "levy.sigma": 2.5})


def test_moment_constraint_named_when_jumps_present():
    with pytest.raises(ConfigError, match=r"k in \(0, sigma\)"):
        parse_config(
            {
                "experiment": "forward-decay",
                "levy.kind": "fractional",
                "levy.sigma": 1.5,
                "weights": ["pow1.8"],
            }
        )
    # exponential weights are never integrable against polynomial jump tails
    with pytest.raises(ConfigError, match="exponential"):
        parse_config(
            {
                "experiment": "forward-decay",
                "levy.kind": "tempered",
                "weights": ["exp0.5_1"],
            }
        )


# fractional jumps, beta 1.2 > 1: the lemma needs the drift's gamma > 1, and an
# OU drift has gamma 2 whatever the drift.gamma key says
OU_LEMMA = {
    "experiment": "lyapunov-report",
    "levy.kind": "fractional",
    "levy.sigma": 1.5,
    "drift.kind": "ou",
    "weights": ["pow0.5"],
    "lyapunov.beta": 1.2,
}


def test_lemma_preconditions_checked_at_parse_time():
    with pytest.raises(ConfigError, match="beta < sigma"):
        parse_config(
            {
                "experiment": "lyapunov-report",
                "levy.kind": "fractional",
                "levy.sigma": 1.5,
                "weights": ["pow0.5"],
                "lyapunov.beta": 1.6,
            }
        )
    with pytest.raises(ConfigError, match="gamma > 1"):
        parse_config({**OU_LEMMA, "drift.kind": "power", "drift.gamma": 1.0})


@pytest.mark.parametrize("drift", [{"drift.kind": "ou", "drift.gamma": 0.5}, {"drift.kind": "none"}],
                         ids=["ou", "none"])
def test_lemma_gamma_is_read_from_the_built_drift(tmp_path, drift):
    out = tmp_path / "out"
    path = tmp_path / "lemma.json"
    path.write_text(json.dumps({**OU_LEMMA, **drift, "output.dir": str(out)}))
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path)]) == 0
    lemma = json.loads((out / "lyapunov.json").read_text())["lemma"]
    assert lemma["holds"] is True and lemma["K_eps"] > 0.0


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("overrides, message", [
    ({"experiment": "lyapunov-report", "lyapunov.beta": -0.5},
     "config error: lyapunov.beta must be >= 0 and finite, got -0.5"),
    ({"experiment": "rate-ode", "rate_ode.form": "power", "rate_ode.p": -0.5},
     "config error: rate_ode: h must be nonincreasing on its whole range"),
    ({"experiment": "rate-ode", "rate_ode.form": "inverse-log", "rate_ode.q": -1.0},
     "config error: rate_ode: h must be nonincreasing on its whole range"),
], ids=["beta", "p", "q"])
def test_library_argument_checks_refuse_at_parse_time(tmp_path, capsys, command, overrides, message):
    # validate refuses what the run's own argument checks would refuse, and
    # run stops before it makes output.dir
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "late.json", **{**overrides, "output.dir": str(out)})
    assert main([command, str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("overrides, message", [
    ({"initial.std": -1.0}, "config error: initial: std must be positive, got -1.0"),
    ({"experiment": "rate-ode", "initial.std": -1.0}, "config error: initial: std must be positive, got -1.0"),
    ({"initial.kind": "gaussian-difference", "initial.std2": 0.0},
     "config error: initial: std must be positive, got 0.0"),
    ({"initial.kind": "bump", "initial.center": 100.0},
     "config error: initial: bump support does not contain any grid node"),
    ({"experiment": "stationary", "drift.kind": "perturbed-power"},
     "config error: drift.kind: stationary solve needs a time-independent drift"),
    *(({"weights": [label]}, f"config error: weights: cannot parse {label!r}; use pow<k> or exp<mu>_<k>")
      for label in ("pow1e", "pow.", "exp1_-", "pow1e400", "exp0.5_1e400", "pow1\n")),
    ({"weights": ["pow-1"]}, "config error: weights: power weight needs k >= 0, got -1.0"),
], ids=["std", "std-any-experiment", "std2", "bump", "stationary",
        "pow1e", "pow.", "exp1_-", "pow1e400", "exp0.5_1e400", "pow1-newline", "pow-1"])
def test_built_objects_refuse_at_parse_time(tmp_path, capsys, command, overrides, message):
    # the initial density is built for every experiment, the stationary
    # solver's drift rule is its own check, and a weight label must hold
    # finite numbers its constructor accepts, so all refuse before output.dir
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "late.json", **{**overrides, "output.dir": str(out)})
    assert main([command, str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_every_experiment_name_has_a_runner():
    # config cannot import cli, so this one name list is stated twice
    assert tuple(cli._EXPERIMENTS) == config.EXPERIMENTS


def test_kind_choices_are_the_builders():
    # a kind is admissible exactly when something builds it, and each kind
    # builds its own field rather than falling through to another's
    for key, built in (("initial.kind", "initial"), ("terminal.kind", "terminal")):
        fields = [getattr(parse_config({"experiment": "forward-decay", "grid.n": 256, key: kind}), built)
                  for kind in config._CHOICES[key]]
        values = {field.values.tobytes() for field in fields}
        assert len(values) == len(fields) >= 3
    forms = config._CHOICES["rate_ode.form"]
    h_at_10 = {float(parse_config({"experiment": "rate-ode", "rate_ode.form": form}).rate_h()(10.0))
               for form in forms}
    assert len(h_at_10) == len(forms) == 3


def test_weight_label_round_trip():
    assert parse_weight("pow0.5").k == 0.5
    w = parse_weight("exp0.5_1")
    assert (w.mu, w.k) == (0.5, 1.0)
    with pytest.raises(ConfigError):
        parse_weight("spline3")


def test_echo_closed_under_reparse():
    cfg = parse_config(dict(FAST_FORWARD))
    echoed = json.loads(canonical_json(cfg.data))
    cfg2 = parse_config(echoed)
    assert cfg2.data == cfg.data
    assert config_hash(cfg2) == config_hash(cfg)


def test_config_hash_tracks_content():
    a = parse_config(dict(FAST_FORWARD))
    b = parse_config({**FAST_FORWARD, "seed": 4})
    assert config_hash(a) != config_hash(b)
    assert len(config_hash(a)) == 64


def test_format_float_round_trips_and_marks_floats():
    for x in (0.1, 1.0 / 3.0, 1e-17, -2.5e300, 16.0, 0.0):
        assert float(format_float(x)) == x
    assert format_float(16.0) == "16.0"  # echo re-parses to float, not int
    with pytest.raises(ValueError):
        format_float(float("nan"))


def test_canonical_json_is_order_insensitive():
    a = canonical_json({"b": 1, "a": [1.5, 2]})
    b = canonical_json({"a": [1.5, 2], "b": 1})
    assert a == b


# ---------------------------------------------------------------------------
# run command


def test_run_forward_decay_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path, "fwd.json", **{"output.dir": str(tmp_path / "out")})
    assert main(["run", str(cfg)]) == 0
    out = tmp_path / "out"
    for name in ("series.csv", "fit.json", "summary.json", "config.resolved.json"):
        assert (out / name).exists()
    raw = (out / "series.csv").read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")
    lines = raw.decode().splitlines()
    assert lines[0] == "t,mass,min_value,boundary_mass,norm_pow0.5"
    assert len(lines) > 5
    summary = json.loads((out / "summary.json").read_text())
    assert summary["experiment"] == "forward-decay"
    fit = summary["fits"]["pow0.5"]["fit"]
    assert fit["params"]["omega"] > 0 and fit["r2"] > 0.99


def test_run_is_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path, "fwd.json", **{"output.dir": str(tmp_path / "out")})
    assert main(["run", str(cfg)]) == 0
    first = (tmp_path / "out" / "series.csv").read_bytes()
    assert main(["run", str(cfg)]) == 0
    assert (tmp_path / "out" / "series.csv").read_bytes() == first


def test_run_validation_failure_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "bad.json",
        **{"levy.kind": "fractional", "levy.sigma": 1.5, "weights": ["pow1.8"]},
    )
    assert main(["run", str(cfg)]) == 2
    assert "k in (0, sigma)" in capsys.readouterr().err


def test_run_numerical_failure_exits_3(tmp_path):
    cfg = write_config(
        tmp_path,
        "cfl.json",
        **{"time.dt": 0.5, "time.t_final": 5.0, "output.dir": str(tmp_path / "out")},
    )
    assert main(["run", str(cfg)]) == 3
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert failure["kind"] == "numerical-failure"
    assert "CFL" in failure["error"]
    assert len(failure["config_hash"]) == 64
    # the echo is still written so the failing run is reproducible
    assert (tmp_path / "out" / "config.resolved.json").exists()


def test_boundary_failure_names_the_grid_spacing(tmp_path):
    # at dx = 1 the diffusion stage spreads data of std 1 into the band by
    # t = 0.05, and a larger box fails sooner: the message names dx as well
    cfg = write_config(tmp_path, "coarse.json", **{
        "grid.n": 64, "grid.half_width": 32.0, "output.dir": str(tmp_path / "out")})
    assert main(["run", str(cfg)]) == 3
    error = json.loads((tmp_path / "out" / "failure.json").read_text())["error"]
    assert error.startswith("boundary mass ")
    assert error.endswith(" exceeds eps=1e-06 at t=0.05: the box is too small for this horizon, "
                          "or dx=1 is too coarse for the data")


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("key, value, shown", [
    ("time.t_final", float("inf"), "inf"),
    ("time.dt", float("nan"), "nan"),
    ("sweep.gamma", [float("nan")], "nan"),
])
def test_non_finite_number_is_refused_by_key(tmp_path, capsys, command, key, value, shown):
    # json writes these as Infinity and NaN, which Python's parser accepts
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "nonfinite.json", **{key: value, "output.dir": str(out)})
    assert main([command, str(cfg)]) == 2
    assert f"config error: {key}: expected a finite number, got {shown}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_forward_blow_up_exits_3_with_its_time(tmp_path, monkeypatch):
    # a stepper that turns one value into inf, or NaN, at step 30; with
    # time.stride 25 the run notices at the record of step 50, t = 0.1. A
    # NaN spreads through the slopes' signs to its neighbours, and the
    # verdict stays that of inf
    steps = []
    clean = forward._Stepper.step
    bad = []

    def poisoned(self, m, t, t_end):
        steps.append(t)
        out = clean(self, m, t, t_end).copy()
        if len(steps) == 30:
            out[..., 100] = bad[0]
        return out

    monkeypatch.setattr(forward._Stepper, "step", poisoned)
    for value in (float("inf"), float("nan")):
        steps.clear()
        bad[:] = [value]
        out = tmp_path / f"out_{value}"
        cfg = write_config(tmp_path, "blow.json", **{"output.dir": str(out)})
        assert main(["run", str(cfg)]) == 3
        assert len(steps) == 50
        failure = json.loads((out / "failure.json").read_text())
        assert failure["kind"] == "numerical-failure"
        assert failure["error"] == "forward run blew up at t=0.1"
        assert not (out / "summary.json").exists()


def test_stationary_blow_up_exits_3_at_the_first_block_end(tmp_path, monkeypatch):
    # NaN at step 3; the convergence check after one unit of time (100 steps
    # of dt 0.01) notices it, long before max_time
    steps = []
    clean = forward._Stepper.step

    def poisoned(self, m, t, t_end):
        steps.append(t)
        out = clean(self, m, t, t_end).copy()
        if len(steps) == 3:
            out[..., 40] = float("nan")
        return out

    monkeypatch.setattr(forward._Stepper, "step", poisoned)
    cfg = write_config(tmp_path, "stationary.json", **{
        "experiment": "stationary", "grid.n": 64, "grid.half_width": 8.0, "time.dt": 0.01,
        "output.dir": str(tmp_path / "out")})
    assert main(["run", str(cfg)]) == 3
    assert len(steps) == 100
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert failure["error"] == "forward run blew up at t=1"


def test_validate_command(tmp_path, capsys):
    good = write_config(tmp_path, "good.json")
    assert main(["validate", str(good)]) == 0
    assert "valid: forward-decay" in capsys.readouterr().out
    bad = write_config(tmp_path, "bad.json", **{"grid.n": 300})
    assert main(["validate", str(bad)]) == 2
    capsys.readouterr()
    two_d = write_config(tmp_path, "two_d.json", **{"grid.d": 2})
    assert main(["validate", str(two_d)]) == 2
    assert "grid.d: solvers are implemented for d=1 only, got 2" in capsys.readouterr().err


def test_config_echo_and_hash_are_pinned(tmp_path, monkeypatch):
    # the echo of one fixed forward-decay config, key "grid.d" included, and
    # its hash are held at the values earlier releases wrote; the output path
    # is relative so that it is part of the pinned bytes
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "pinned.json", **{"output.dir": "out"})
    assert main(["run", str(cfg)]) == 0
    echo = (tmp_path / "out" / "config.resolved.json").read_bytes()
    assert b'  "grid.d": 1,\n' in echo
    assert hashlib.sha256(echo).hexdigest() == (
        "eef64bf5c62d5a4b01fc573bd6fc57bb9bc6a9e96d282d6c7d493d5859b5e39f")
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["config_hash"] == (
        "5ff041d0719ae544d9127d309d7fab4889eb65c43b0a438bd75040f3edb08ac2")


def test_validate_refuses_weight_that_overflows_on_grid(tmp_path, capsys):
    # exp(3 <x>^2) is inf beyond |x| ~ 15.4, inside a half width of 16
    wide = write_config(tmp_path, "wide.json", **{"grid.half_width": 16.0, "weights": ["exp3_2"]})
    assert main(["validate", str(wide)]) == 2
    err = capsys.readouterr().err
    assert "config error: weights: exp3_2 overflows on the grid: not finite at |x| >= 15.375" in err
    narrow = write_config(tmp_path, "narrow.json", **{"grid.half_width": 8.0, "weights": ["exp3_2"]})
    assert main(["validate", str(narrow)]) == 0
    assert "valid: forward-decay" in capsys.readouterr().out


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_run_rate_ode_experiment(tmp_path):
    path = tmp_path / "rode.json"
    path.write_text(
        json.dumps(
            {
                "experiment": "rate-ode",
                "rate_ode.form": "power",
                "rate_ode.p": 1.0,
                "rate_ode.L": 2.0,
                "rate_ode.theta": 0.3,
                "rate_ode.t_final": 20.0,
                "fit.model": "none",
                "output.dir": str(tmp_path / "out"),
            }
        )
    )
    assert main(["run", str(path)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["max_implicit_residual"] < 1e-6
    lines = (tmp_path / "out" / "varpi.csv").read_text().splitlines()
    assert lines[0] == "t,varpi"
    assert len(lines) == 202


def test_adjoint_oscillation_runs_with_a_time_dependent_drift(tmp_path):
    # the backward clock reverses at time.t_final, so a moving drift needs no more keys
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "adj.json", **{"experiment": "adjoint-oscillation",
                                                "drift.kind": "perturbed-power", "time.t_final": 0.5,
                                                "fit.model": "none", "output.dir": str(out)})
    assert main(["run", str(cfg)]) == 0
    lines = (out / "series.csv").read_text().splitlines()
    assert lines[0] == "s,sup_norm,osc_pow0.5"
    assert len(lines) == 12


def test_duality_check_residual_halves_with_dt(tmp_path):
    # AC-6 through the CLI: without a limiter the pairing residual is Theta(dt),
    # so halving dt halves it (measured ratio 0.494). With the default mc
    # limiter the same pair measured 1.532.
    normalized = []
    for dt in (1e-3, 5e-4):
        out = tmp_path / f"dt{dt:g}"
        cfg = write_config(tmp_path, "duality.json", **{
            "experiment": "duality-check", "levy.kind": "fractional", "levy.sigma": 1.5,
            "drift.kind": "ou", "initial.kind": "gaussian", "time.t_final": 2.0, "time.dt": dt,
            "solver.limiter": "off", "solver.eps_boundary": 0.05, "output.dir": str(out)})
        assert main(["run", str(cfg)]) == 0
        report = json.loads((out / "duality.json").read_text())
        assert set(report) == {"residual", "normalized", "lhs", "rhs", "dt", "n_steps"}
        assert report["n_steps"] == round(2.0 / dt)
        summary = json.loads((out / "summary.json").read_text())
        assert {key: summary[key] for key in report} == report
        normalized.append(report["normalized"])
    assert 0.4 <= normalized[1] / normalized[0] <= 0.6


def test_run_lyapunov_report_experiment(tmp_path):
    path = tmp_path / "lyap.json"
    path.write_text(
        json.dumps(
            {
                "experiment": "lyapunov-report",
                "weights": ["pow0.5"],
                "lyapunov.beta": 0.9,
                "output.dir": str(tmp_path / "out"),
            }
        )
    )
    assert main(["run", str(path)]) == 0
    report = json.loads((tmp_path / "out" / "lyapunov.json").read_text())
    assert report["reports"]["pow0.5"]["classification"] == "H1"
    assert report["lemma"]["holds"] is True


# ---------------------------------------------------------------------------
# sweep command


SWEEP_BASE = {
    "experiment": "forward-decay",
    "grid.n": 256,
    "grid.half_width": 12.0,
    "initial.kind": "gaussian-difference",
    "time.dt": 0.002,
    "time.t_final": 3.0,
    "time.stride": 25,
    "solver.eps_boundary": 0.05,
    "sweep.gamma": [1.5],
    "sweep.sigma": [2.0],
    "sweep.k": [0.2],
    "sweep.kbar": [0.7],
}


def write_sweep(tmp_path, name, **overrides):
    data = {**SWEEP_BASE, **overrides}
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_sweep_single_cell_matches_single_run(tmp_path):
    cfg = write_sweep(tmp_path, "sweep.json", **{"output.dir": str(tmp_path / "sw")})
    assert main(["sweep", str(cfg)]) == 0
    header, rows = read_rows(tmp_path / "sw" / "sweep.csv")
    assert header == ["gamma", "sigma", "k", "kbar", "predicted_q", "fitted_exponent", "r2", "status"]
    assert len(rows) == 1 and rows[0][-1] == "ok"

    # an equivalent standalone run reproduces the row's fit exactly
    single = {
        **{k: v for k, v in SWEEP_BASE.items() if not k.startswith("sweep.")},
        "drift.kind": "power",
        "drift.gamma": 1.5,
        "weights": ["pow0.2"],
        "fit.model": "power",
        "output.dir": str(tmp_path / "single"),
    }
    path = tmp_path / "single.json"
    path.write_text(json.dumps(single))
    assert main(["run", str(path)]) == 0
    fit = json.loads((tmp_path / "single" / "fit.json").read_text())["pow0.2"]["fit"]
    assert float(rows[0][5]) == pytest.approx(fit["params"]["q"], abs=1e-15)
    assert float(rows[0][6]) == pytest.approx(fit["r2"], abs=1e-15)


def test_sweep_row_count_is_axis_product(tmp_path):
    cfg = write_sweep(
        tmp_path,
        "sweep.json",
        **{
            "sweep.gamma": [1.2, 1.5, 1.8],
            "sweep.kbar": [0.7, 0.9],
            "time.t_final": 1.0,
            "output.dir": str(tmp_path / "sw"),
        },
    )
    assert main(["sweep", str(cfg)]) == 0
    _, rows = read_rows(tmp_path / "sw" / "sweep.csv")
    assert len(rows) == 6
    gammas = [row[0] for row in rows]
    assert gammas == sorted(gammas)  # fixed aggregation order


def test_sweep_records_cell_failures_and_continues(tmp_path):
    cfg = write_sweep(
        tmp_path,
        "sweep.json",
        **{
            "sweep.sigma": [1.5],
            "sweep.k": [1.8],  # violates k < sigma inside the cell
            "time.t_final": 1.0,
            "output.dir": str(tmp_path / "sw"),
        },
    )
    assert main(["sweep", str(cfg)]) == 0
    _, rows = read_rows(tmp_path / "sw" / "sweep.csv")
    assert len(rows) == 1
    assert rows[0][-1].startswith("validation-error")
    assert "k in (0; sigma)" in rows[0][-1]  # sanitized for the csv
    assert rows[0][5] == "" and rows[0][6] == ""  # no fitted values


def test_sweep_rejects_empty_axes(tmp_path):
    cfg = write_sweep(tmp_path, "sweep.json", **{"sweep.kbar": []})
    assert main(["sweep", str(cfg)]) == 2


@pytest.mark.parametrize("workers", [0, -1])
def test_sweep_refuses_fewer_than_one_worker(tmp_path, capsys, workers):
    # a count below 1 names no worker: a config error before any file is written
    cfg = write_sweep(tmp_path, "sweep.json", **{"output.dir": str(tmp_path / "sw")})
    assert main(["sweep", str(cfg), "--workers", str(workers)]) == 2
    assert capsys.readouterr().err == f"config error: --workers must be at least 1, got {workers}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.json"]


def tree_digest(root) -> dict:
    """sha256 of every file under root, by path relative to root."""
    root = pathlib.Path(root)
    return {str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_sweep_workers_byte_identical(tmp_path, monkeypatch):
    # every file of every cell, and sweep.csv, whatever the contiguous groups
    # the cells march in; a relative output.dir keeps the echoed configs equal
    digests = []
    for workers in (1, 2, 3):
        run_dir = tmp_path / f"workers{workers}"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        cfg = write_sweep(run_dir, "sweep.json", **{
            "sweep.gamma": [1.2, 1.8], "sweep.sigma": [2.0, 1.5], "time.t_final": 1.0, "output.dir": "sw"})
        assert main(["sweep", str(cfg), "--workers", str(workers)]) == 0
        digests.append(tree_digest(run_dir / "sw"))
    assert len(digests[0]) == 2 + 4 * 4  # sweep.csv and its config; 4 files in each of 4 cells
    assert digests[0] == digests[1] == digests[2]


def _solo_runs_match_cells(tmp_path, cells_root) -> list:
    """Rerun each cell by `levyfp run` of its config.resolved.json into its own
    directory; assert the same files, and return the exit codes."""
    codes = []
    for cell in sorted(pathlib.Path(cells_root).iterdir()):
        swept = tree_digest(cell)
        solo_cfg = tmp_path / f"{cell.name}.json"
        solo_cfg.write_bytes((cell / "config.resolved.json").read_bytes())
        shutil.rmtree(cell)
        codes.append(main(["run", str(solo_cfg)]))
        assert tree_digest(cell) == swept
    return codes


def test_sweep_cells_match_solo_runs(tmp_path, monkeypatch):
    # sigma 0.8 breaks the band at t = 0.15 and leaves the stack; the other
    # cells march on, and each cell writes what its own run writes
    monkeypatch.chdir(tmp_path)
    cfg = write_sweep(tmp_path, "sweep.json", **{
        "sweep.sigma": [2.0, 0.8, 1.5], "solver.eps_boundary": 1e-4, "time.t_final": 1.0,
        "output.dir": "sw"})
    assert main(["sweep", str(cfg)]) == 0
    _, rows = read_rows(tmp_path / "sw" / "sweep.csv")
    assert [row[-1].split(":")[0] for row in rows] == ["ok", "numerical-failure", "ok"]
    assert rows[1][-1].startswith("numerical-failure: boundary mass ")
    assert sorted(tree_digest(tmp_path / "sw" / "cells" / "cell_0001")) == ["config.resolved.json",
                                                                            "failure.json"]
    assert _solo_runs_match_cells(tmp_path, tmp_path / "sw" / "cells") == [0, 3, 0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sweep_poisoned_row_fails_alone(tmp_path, monkeypatch):
    # the gamma 1.5 row turns inf at step 30 (from t = 29 dt) and fails at
    # the record of step 50; it writes the failure.json of its own poisoned
    # run, and the other rows keep the bytes of a clean sweep
    monkeypatch.chdir(tmp_path)
    cfg = write_sweep(tmp_path, "sweep.json", **{
        "sweep.gamma": [1.2, 1.5, 1.8], "time.t_final": 1.0, "output.dir": "sw"})
    assert main(["sweep", str(cfg)]) == 0
    clean = tree_digest(tmp_path / "sw")
    shutil.rmtree(tmp_path / "sw")

    steps = []
    clean_step = forward._Stepper.step

    def poisoned(self, m, t, t_end):
        steps.append(t)
        out = clean_step(self, m, t, t_end).copy()
        if t == 29 * 0.002:
            rows = out.reshape(-1, out.shape[-1])
            for r, stage in enumerate(self.stages):
                if stage.spec.drift.gamma == 1.5:
                    rows[r, 100] = np.inf
        return out

    monkeypatch.setattr(forward._Stepper, "step", poisoned)
    assert main(["sweep", str(cfg)]) == 0
    assert len(steps) == 500
    _, rows = read_rows(tmp_path / "sw" / "sweep.csv")
    assert [row[-1] for row in rows] == ["ok", "numerical-failure: forward run blew up at t=0.1", "ok"]
    swept = tree_digest(tmp_path / "sw")
    changed = {path for path in clean.keys() | swept.keys() if clean.get(path) != swept.get(path)}
    assert {path.split("/")[-1] for path in changed if path.startswith("cells/cell_0001/")} == {
        "failure.json", "fit.json", "series.csv", "summary.json"}
    assert changed - {path for path in changed if path.startswith("cells/cell_0001/")} == {"sweep.csv"}

    assert _solo_runs_match_cells(tmp_path, tmp_path / "sw" / "cells") == [0, 3, 0]


def test_csv_floats_carry_17_significant_digits(tmp_path):
    cfg = write_config(tmp_path, "fwd.json", **{"output.dir": str(tmp_path / "out")})
    assert main(["run", str(cfg)]) == 0
    lines = (tmp_path / "out" / "series.csv").read_text().splitlines()
    # the time column at t = 0.05 must carry the full-precision value
    t_cell = lines[2].split(",")[0]
    assert t_cell == format_float(0.05)
    assert float(t_cell) == 0.05


# ---------------------------------------------------------------------------
# particle experiments


@pytest.mark.parametrize("experiment", ["particles", "coupling"])
def test_tempered_cap_excess_reported_only_for_tempered_runs(tmp_path, experiment):
    base = {
        "experiment": experiment,
        "levy.sigma": 1.5,
        "diffusion.lambda0": 0.25,
        "particles.source": "point",
        "particles.n": 2000,
        "coupling.n_pairs": 2000,
        "time.dt": 0.01,
        "time.t_final": 0.1,
        "fit.model": "none",
        "seed": 3,
    }
    for kind in ("tempered", "fractional"):
        out = tmp_path / kind
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps({**base, "levy.kind": kind, "output.dir": str(out)}))
        assert main(["run", str(path)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        if kind == "tempered":
            stepper = _ParticleStepper(parse_config(json.loads(path.read_text())).generator, 0.01)
            assert summary["tempered_cap_excess"] == stepper.tempered.cap_excess
        else:
            assert "tempered_cap_excess" not in summary


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_particle_blow_up_exits_3_with_its_time(tmp_path):
    # x -> -9999 x per step: a numerical failure, not a config error
    path = tmp_path / "blow.json"
    path.write_text(json.dumps({
        "experiment": "particles",
        "levy.kind": "fractional",
        "drift.kind": "power",
        "drift.alpha": 1e4,
        "drift.gamma": 2.0,
        "particles.source": "point",
        "particles.n": 1000,
        "time.dt": 1.0,
        "time.t_final": 200.0,
        "output.dir": str(tmp_path / "out"),
    }))
    assert main(["run", str(path)]) == 3
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert failure["error"] == "particle positions left the finite range at t=78"


@pytest.mark.parametrize("cores", [1, 2])
def test_particle_moment_overflow_exits_3_naming_the_weight(tmp_path, monkeypatch, cores):
    # x -> -9999 x per step: the positions are still finite at t_final 70,
    # but their pow0.5 weight overflows to inf from the record at t=40. A
    # numerical failure with failure.json, not a config error from writing
    # inf to series.csv; chunks of 1000 give 2, run inline or on the pool
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    monkeypatch.setattr(particles, "_CHUNK", 1000)
    cfg = write_config(tmp_path, "overflow.json", **{
        "experiment": "particles", "levy.kind": "fractional", "levy.sigma": 1.5, "drift.kind": "power",
        "drift.alpha": 1e4, "drift.gamma": 2.0, "particles.source": "point", "particles.n": 2000,
        "time.dt": 1.0, "time.t_final": 70.0, "time.stride": 10, "seed": 0,
        "output.dir": str(tmp_path / "out")})
    assert main(["run", str(cfg)]) == 3
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert failure["error"] == "particle moment pow0.5 left the finite range at t=40"
    assert not (tmp_path / "out" / "series.csv").exists()


@pytest.mark.parametrize("experiment", ["particles", "coupling"])
def test_seeds_beyond_64_bits_run(tmp_path, experiment):
    # a seed is any nonnegative int: the particle streams take it whole
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "experiment": experiment,
        "levy.kind": "fractional",
        "particles.source": "point",
        "particles.n": 500,
        "coupling.n_pairs": 500,
        "time.dt": 0.01,
        "time.t_final": 0.05,
        "fit.model": "none",
        "seed": 2**64,
        "output.dir": str(tmp_path / "out"),
    }))
    assert main(["run", str(path)]) == 0
    resolved = json.loads((tmp_path / "out" / "config.resolved.json").read_text())
    assert resolved["seed"] == 2**64


# ---------------------------------------------------------------------------
# cold start: scipy and multiprocessing load only in the calls that use them

SRC = str(pathlib.Path(__file__).parents[1] / "src")


def run_fresh(code, *args):
    """Run code in a new interpreter with src on its path, and return the
    scipy and multiprocessing modules that interpreter holds afterwards."""
    script = (f"import json, sys\nsys.path.insert(0, {SRC!r})\nfrom levyfp.cli import main\n{code}\n"
              "roots = ('scipy', 'multiprocessing')\n"
              "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in roots)))")
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_validate_and_forward_run_load_neither_scipy_nor_multiprocessing(tmp_path):
    cfg = write_config(tmp_path, "fwd.json", **{"grid.n": 64, "time.t_final": 0.2,
                                                "output.dir": str(tmp_path / "out")})
    loaded = run_fresh("assert main(['validate', sys.argv[1]]) == 0\n"
                       "assert main(['run', sys.argv[1]]) == 0", cfg)
    assert (tmp_path / "out" / "summary.json").exists()
    assert loaded == []


def test_deferred_scipy_imports_resolve_in_a_fresh_interpreter(tmp_path):
    particles = tmp_path / "particles.json"
    particles.write_text(json.dumps({
        "experiment": "particles", "levy.kind": "tempered", "levy.sigma": 1.5,
        "diffusion.lambda0": 0.25, "particles.source": "point", "particles.n": 1000,
        "time.dt": 0.01, "time.t_final": 0.05, "fit.model": "none",
        "output.dir": str(tmp_path / "p"),
    }))
    rate_ode = tmp_path / "rode.json"
    rate_ode.write_text(json.dumps({
        "experiment": "rate-ode", "rate_ode.form": "power", "rate_ode.p": 1.0,
        "rate_ode.L": 2.0, "rate_ode.theta": 0.3, "rate_ode.t_final": 2.0,
        "fit.model": "none", "output.dir": str(tmp_path / "r"),
    }))
    loaded = run_fresh("assert main(['run', sys.argv[1]]) == 0\n"
                       "assert main(['run', sys.argv[2]]) == 0", particles, rate_ode)
    assert {"scipy.integrate", "scipy.special"} <= set(loaded)
    assert (tmp_path / "p" / "summary.json").exists() and (tmp_path / "r" / "summary.json").exists()


def validate_fresh(cfg):
    """``levyfp validate cfg`` in a new interpreter, which prints numpy's warnings."""
    script = f"import sys\nsys.path.insert(0, {SRC!r})\nfrom levyfp.cli import main\nsys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", script, "validate", str(cfg)],
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("experiment", ["particles", "coupling"])
def test_particle_blow_up_prints_only_its_failure(tmp_path, experiment, cores):
    # x -> -9999 x per step overflows the drift, and the pow0.5 weight of the
    # records, steps before a position leaves the finite range. stderr holds
    # the failure alone, from chunks run inline and on the pool's threads
    # (a fresh interpreter shows numpy's warnings; chunks of 1000 give 2)
    cfg = write_config(tmp_path, "blow.json", **{
        "experiment": experiment, "levy.kind": "fractional", "drift.kind": "power",
        "drift.alpha": 1e4, "drift.gamma": 2.0, "particles.source": "point", "particles.n": 2000,
        "coupling.n_pairs": 2000, "time.dt": 1.0, "time.t_final": 200.0, "fit.model": "none",
        "output.dir": str(tmp_path / "out")})
    script = (f"import os, sys\nsys.path.insert(0, {SRC!r})\n"
              f"os.sched_getaffinity = lambda pid: set(range({cores}))\n"
              "from levyfp import particles\nparticles._CHUNK = 1000\n"
              "from levyfp.cli import main\nsys.exit(main(['run', sys.argv[1]]))")
    proc = subprocess.run([sys.executable, "-c", script, str(cfg)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert re.fullmatch(r"numerical failure: particle positions left the finite range at t=\d+\n", proc.stderr)


def test_rate_ode_refusal_prints_no_numpy_warning(tmp_path):
    # h = c / log(r)^q divides by zero on the probe r = L = 1; the refusal
    # says so, and numpy stays quiet (a fresh interpreter shows its warnings)
    cfg = write_config(tmp_path, "rode.json", **{"experiment": "rate-ode", "rate_ode.form": "inverse-log",
                                                 "rate_ode.L": 1.0})
    proc = validate_fresh(cfg)
    assert proc.returncode == 2
    assert proc.stderr == "config error: rate_ode: h must be positive, got a nonpositive or non-finite probe value\n"


def test_tiny_std_refusal_prints_no_numpy_warning(tmp_path):
    # a std far below dx overflows the Gaussian's exponent and leaves no node
    # any weight; the refusal says so, and numpy stays quiet
    cfg = write_config(tmp_path, "tiny.json", **{"grid.n": 256, "initial.std": 1e-200, "initial.center": 0.01})
    proc = validate_fresh(cfg)
    assert proc.returncode == 2
    assert proc.stderr == "config error: initial: std 1e-200 is too small for the grid: no node gets weight\n"
