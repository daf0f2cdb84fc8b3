"""Flat dotted-key experiment configuration.

One JSON object, no nesting, no includes: every key is a dotted path with a
scalar or list value, so configs diff cleanly and the resolved echo re-parses
to the identical run.  Validation is total: the grid, the generator, every
weight, and every cross-field admissibility constraint are checked before any
compute starts, and violations name the constraint they break.  A rule a
library function relies on is that library's check, run on the built objects.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .adjoint import ramp_profile, smoothed_indicator, tanh_profile, tapered_linear
from .forward import check_stationary_spec, gaussian, gaussian_difference, smooth_bump
from .generators import DriftSpec, GeneratorSpec, LevyMeasureSpec, LocalDiffusionSpec
from .grids import Field, Grid
from .lyapunov import (
    H_FORMS,
    check_lemma_preconditions,
    check_rate_ode_arguments,
    check_weight_against_measure,
    h_model_function,
)
from .operators import LIMITERS
from .particles import check_samplable
from .rates import FITTERS
from .weights import WeightFunction

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "EXPERIMENTS",
    "canonical_digest",
    "canonical_json",
    "config_hash",
    "load_config",
    "parse_config",
]

EXPERIMENTS = (
    "forward-decay",
    "adjoint-oscillation",
    "duality-check",
    "particles",
    "coupling",
    "lyapunov-report",
    "rate-ode",
    "stationary",
)


class ConfigError(ValueError):
    """A config failed parse-time validation; message names the constraint."""


# key -> (type tag, default).  "float?" admits null.  A None default with a
# plain tag marks the key as required.
_SCHEMA = {
    "experiment": ("str", None),
    "grid.d": ("int", 1),
    "grid.n": ("int", 1024),
    "grid.half_width": ("float", 16.0),
    "diffusion.kind": ("str", "constant"),
    "diffusion.lambda0": ("float", 1.0),
    "diffusion.amplitude": ("float", 0.0),
    "levy.kind": ("str", "none"),
    "levy.sigma": ("float", 1.5),
    "levy.scale": ("float", 1.0),
    "drift.kind": ("str", "ou"),
    "drift.alpha": ("float", 1.0),
    "drift.gamma": ("float", 2.0),
    "drift.R": ("float", 1.0),
    "drift.amplitude": ("float", 0.3),
    "initial.kind": ("str", "gaussian"),
    "initial.center": ("float", 0.0),
    "initial.std": ("float", 1.0),
    "initial.center2": ("float", 0.0),
    "initial.std2": ("float", 2.0),
    "terminal.kind": ("str", "tanh"),
    "weights": ("str-list", ["pow0.5"]),
    "time.dt": ("float", 1e-3),
    "time.t_final": ("float", 10.0),
    "time.stride": ("int", 10),
    "solver.limiter": ("str", "mc"),
    "solver.eps_boundary": ("float?", None),
    "fit.model": ("str", "exponential"),
    "fit.t_lo": ("float?", None),
    "fit.t_hi": ("float?", None),
    "fit.transient_frac": ("float", 0.2),
    "particles.n": ("int", 20000),
    "particles.source": ("str", "initial"),
    "particles.x0": ("float", 0.0),
    "coupling.x0": ("float", -1.0),
    "coupling.y0": ("float", 1.0),
    "coupling.eps": ("float", 0.05),
    "coupling.n_pairs": ("int", 2000),
    "lyapunov.beta": ("float?", None),
    "lyapunov.eps": ("float", 0.5),
    "rate_ode.form": ("str", "constant"),
    "rate_ode.c": ("float", 1.0),
    "rate_ode.p": ("float", 0.5),
    "rate_ode.q": ("float", 1.0),
    "rate_ode.L": ("float", float(np.e)),
    "rate_ode.theta": ("float", 0.5),
    "rate_ode.t_final": ("float", 40.0),
    "rate_ode.n_points": ("int", 201),
    "seed": ("int", 0),
    "output.dir": ("str", "out"),
    "sweep.gamma": ("float-list", []),
    "sweep.sigma": ("float-list", []),
    "sweep.k": ("float-list", []),
    "sweep.kbar": ("float-list", []),
}

# initial.kind -> density on the grid
_INITIAL = {
    "gaussian": lambda grid, d: gaussian(grid, d["initial.center"], d["initial.std"]),
    "gaussian-difference": lambda grid, d: gaussian_difference(grid, d["initial.center"], d["initial.std"],
                                                               d["initial.center2"], d["initial.std2"]),
    "bump": lambda grid, d: smooth_bump(grid, d["initial.center"], d["initial.std"]),
}
# terminal.kind -> terminal profile on the grid
_TERMINAL = {
    "tanh": tanh_profile,
    "ramp": ramp_profile,
    "indicator": smoothed_indicator,
    "tapered": tapered_linear,
}

# diffusion.kind, levy.kind, drift.kind -> the generator piece from the data
_DIFFUSION = {
    "constant": lambda d: LocalDiffusionSpec.constant(d["diffusion.lambda0"]),
    "tanh": lambda d: LocalDiffusionSpec.tanh_variable(d["diffusion.lambda0"], d["diffusion.amplitude"]),
}
_LEVY = {
    "none": lambda d: LevyMeasureSpec.none(),
    "fractional": lambda d: LevyMeasureSpec.fractional(d["levy.sigma"], d["levy.scale"]),
    "tempered": lambda d: LevyMeasureSpec.tempered(d["levy.sigma"], d["levy.scale"]),
}
_DRIFT = {
    "none": lambda d: DriftSpec.none(),
    "ou": lambda d: DriftSpec.ou(d["drift.alpha"]),
    "power": lambda d: DriftSpec.power(d["drift.alpha"], d["drift.gamma"], d["drift.R"]),
    "perturbed-power": lambda d: DriftSpec.perturbed_power(d["drift.alpha"], d["drift.gamma"],
                                                           d["drift.amplitude"], d["drift.R"]),
}

_CHOICES = {
    "experiment": EXPERIMENTS,
    "diffusion.kind": tuple(_DIFFUSION),
    "levy.kind": tuple(_LEVY),
    "drift.kind": tuple(_DRIFT),
    "initial.kind": tuple(_INITIAL),
    "terminal.kind": tuple(_TERMINAL),
    "fit.model": ("none", *FITTERS),
    "particles.source": ("initial", "point"),
    "rate_ode.form": H_FORMS,
    "solver.limiter": LIMITERS,
}

_NUMBER = r"([+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"  # what float() reads
# whole-label patterns: "$" would let a trailing newline into the CSV headers, "\Z" does not
_WEIGHT_POW = re.compile(rf"pow{_NUMBER}\Z")
_WEIGHT_EXP = re.compile(rf"exp{_NUMBER}_{_NUMBER}\Z")


def _coerce(key, tag, value):
    if tag == "str":
        if not isinstance(value, str):
            raise ConfigError(f"{key}: expected a string, got {value!r}")
        return value
    if tag == "int":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{key}: expected an integer, got {value!r}")
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{key}: expected an integer, got {value!r}")
        return int(value)
    if tag in ("float", "float?"):
        if value is None and tag == "float?":
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{key}: expected a number, got {value!r}")
        return _finite(key, value)
    if tag == "str-list":
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ConfigError(f"{key}: expected a list of strings, got {value!r}")
        return list(value)
    if tag == "float-list":
        if not isinstance(value, list) or any(
            isinstance(v, bool) or not isinstance(v, (int, float)) for v in value
        ):
            raise ConfigError(f"{key}: expected a list of numbers, got {value!r}")
        return [_finite(key, v) for v in value]
    raise AssertionError(tag)


def _finite(key, value) -> float:
    """float(value); NaN and +-inf would reach the solvers and the
    serializer, so they are refused here with the key's name."""
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return value


def parse_weight(label: str) -> WeightFunction:
    """Weight descriptor in label form: pow<k> or exp<mu>_<k>, each number
    finite. A refusal of the weight's constructor is led by ``weights: ``."""
    m = _WEIGHT_POW.match(label) or _WEIGHT_EXP.match(label)
    numbers = [float(text) for text in m.groups()] if m else []
    if not numbers or not all(map(math.isfinite, numbers)):
        raise ConfigError(f"weights: cannot parse {label!r}; use pow<k> or exp<mu>_<k>")
    build = WeightFunction.power if len(numbers) == 1 else WeightFunction.exponential
    return _refuse_as("weights: ", build, *numbers)


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved, validated configuration plus the objects it names."""

    data: dict
    grid: Grid
    generator: GeneratorSpec
    weights: dict
    initial: Field
    terminal: Field

    def __getitem__(self, key):
        return self.data[key]

    @property
    def experiment(self) -> str:
        return self.data["experiment"]

    def rate_h(self):
        return h_model_function({key: self.data[f"rate_ode.{key}"] for key in ("form", "c", "p", "q")})


def _build_generator(data) -> GeneratorSpec:
    return GeneratorSpec(_DIFFUSION[data["diffusion.kind"]](data), _LEVY[data["levy.kind"]](data),
                         _DRIFT[data["drift.kind"]](data))


def _refuse_as(prefix: str, check, *args):
    """Run a library admissibility check, or a builder that runs one, and return
    its result; a refusal becomes a ConfigError led by ``prefix``."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _check_admissibility(cfg: ExperimentConfig):
    data, grid = cfg.data, cfg.grid
    for label, w in cfg.weights.items():
        with np.errstate(over="ignore", invalid="ignore"):
            bad = ~np.isfinite(w(grid.nodes))
        if bad.any():
            raise ConfigError(
                f"weights: {label} overflows on the grid: not finite at |x| >= "
                f"{np.abs(grid.nodes[bad]).min():g} (grid.half_width={grid.half_width:g})"
            )
        _refuse_as("weights: ", check_weight_against_measure, w, cfg.generator.levy)
    # the lemma's messages start with the argument they blame, beta or eps;
    # beta = 0 meets every beta rule, so an unset beta checks eps alone
    beta = data["lyapunov.beta"]
    _refuse_as("lyapunov.", check_lemma_preconditions, cfg.generator,
               0.0 if beta is None else beta, data["lyapunov.eps"])
    _refuse_as("rate_ode: ", check_rate_ode_arguments, cfg.rate_h(), data["rate_ode.L"],
               data["rate_ode.theta"], data["rate_ode.t_final"], data["rate_ode.n_points"])
    if cfg.experiment == "stationary":
        _refuse_as("drift.kind: ", check_stationary_spec, cfg.generator)
    if cfg.experiment == "particles" and data["particles.source"] == "initial":
        _refuse_as("initial: ", check_samplable, cfg.initial)
    if data["time.dt"] <= 0 or data["time.t_final"] <= 0:
        raise ConfigError("time.dt and time.t_final must be positive")
    if data["time.stride"] < 1:
        raise ConfigError(f"time.stride: must be >= 1, got {data['time.stride']}")
    if data["fit.transient_frac"] < 0 or data["fit.transient_frac"] >= 1:
        raise ConfigError("fit.transient_frac must lie in [0, 1)")
    t_lo, t_hi = data["fit.t_lo"], data["fit.t_hi"]
    if t_lo is not None and t_hi is not None and not t_lo < t_hi:
        raise ConfigError(f"fit window [{t_lo:g}, {t_hi:g}] is empty")
    if (t_lo is None) != (t_hi is None):
        raise ConfigError("fit.t_lo and fit.t_hi must be given together")
    if data["particles.n"] < 1 or data["coupling.n_pairs"] < 1:
        raise ConfigError("particles.n and coupling.n_pairs must be >= 1")
    if data["coupling.eps"] <= 0:
        raise ConfigError("coupling.eps must be positive")
    eps_b = data["solver.eps_boundary"]
    if eps_b is not None and eps_b <= 0:
        raise ConfigError("solver.eps_boundary must be positive when given")
    if data["seed"] < 0:
        raise ConfigError("seed must be nonnegative")


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a flat dict against the schema and build the named objects."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(raw) - set(_SCHEMA))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    data = {}
    for key, (tag, default) in _SCHEMA.items():
        if key in raw:
            data[key] = _coerce(key, tag, raw[key])
        elif default is None and tag != "float?":
            raise ConfigError(f"missing required config key: {key}")
        else:
            data[key] = default if not isinstance(default, list) else list(default)

    for key, choices in _CHOICES.items():
        if data[key] not in choices:
            raise ConfigError(f"{key}: must be one of {', '.join(choices)}, got {data[key]!r}")

    if data["grid.d"] != 1:
        raise ConfigError(f"grid.d: solvers are implemented for d=1 only, got {data['grid.d']}")
    # constructors carry the per-object admissibility checks; surface their
    # refusals as validation errors before any compute starts
    try:
        grid = Grid(data["grid.n"], data["grid.half_width"])
        generator = _build_generator(data)
        weights = {label: parse_weight(label) for label in data["weights"]}
    except ConfigError:
        raise
    except (ValueError, NotImplementedError) as exc:
        raise ConfigError(str(exc)) from exc

    # like the rate ODE's arguments, the initial density is checked for every experiment
    initial = _refuse_as("initial: ", _INITIAL[data["initial.kind"]], grid, data)
    cfg = ExperimentConfig(data=data, grid=grid, generator=generator, weights=weights,
                           initial=initial, terminal=_TERMINAL[data["terminal.kind"]](grid))
    _check_admissibility(cfg)
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(raw)


# ---------------------------------------------------------------------------
# deterministic serialization: sorted keys, floats at 17 significant digits


def format_float(x: float) -> str:
    if x != x:
        raise ValueError("cannot serialize NaN into a config or table")
    if math.isinf(x):
        raise ValueError("cannot serialize infinities into a config or table")
    s = f"{x:.17g}"
    # keep the value recognizably a float so the echo re-parses to the same type
    if s.lstrip("-").isdigit():
        s += ".0"
    return s


def canonical_json(obj, indent="") -> str:
    """JSON with sorted keys, \\n endings, and 17-significant-digit floats."""
    pad = indent + "  "
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        items = [canonical_json(v, pad) for v in obj]
        if not items:
            return "[]"
        return "[\n" + ",\n".join(pad + it for it in items) + "\n" + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{json.dumps(str(k))}: {canonical_json(obj[k], pad)}" for k in sorted(obj, key=str)
        ]
        return "{\n" + ",\n".join(pad + p for p in parts) + "\n" + indent + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__} deterministically")


def canonical_digest(text: str) -> str:
    """sha256 hex digest of a canonical_json text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def config_hash(cfg: ExperimentConfig) -> str:
    """The digest of the resolved config: config.resolved.json without its final newline."""
    return canonical_digest(canonical_json(cfg.data))
