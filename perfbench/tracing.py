"""Spans at levyfp module boundaries, recorded from outside the program.

The tracer replaces the module-level names that callers resolve at call time
(``levyfp.cli.solve``, ``levyfp.forward.levy_integral_field``, ...) with
wrappers that append (name, start, end, parent) to an in-memory list, and
restores the originals afterwards.  Nothing inside ``levyfp`` changes.
"""
from __future__ import annotations

import importlib
import os
import sys
from collections import defaultdict
from time import perf_counter

# span name -> the module-level names its callers resolve
SPAN_TARGETS = {
    "config.parse_config": ("levyfp.config.parse_config", "levyfp.cli.parse_config"),
    "forward.solve": ("levyfp.cli.solve",),
    "operators.transport_flux": ("levyfp.forward.transport_flux",),
    "operators.divergence_of_flux": ("levyfp.forward.divergence_of_flux",),
    "operators.levy_integral_field": ("levyfp.forward.levy_integral_field",
                                      "levyfp.adjoint.levy_integral_field"),
    "norms.weighted_seminorm": ("levyfp.adjoint.weighted_seminorm",),
    "adjoint.solve_backward": ("levyfp.cli.solve_backward",),
    "particles.simulate": ("levyfp.cli.simulate",),
    "particles.step_ensemble": ("levyfp.particles.step_ensemble",),
    "norms.weighted_tv_norm": ("levyfp.forward.weighted_tv_norm",),
    # the CLI fits through window_shift_stability: one base fit plus two
    # shifted refits per call
    "rates.fit": ("levyfp.cli.window_shift_stability",),
    "cli.write_csv": ("levyfp.cli.write_csv",),
    "cli.write_json": ("levyfp.cli.write_json",),
}

ROOT_SPAN = "cli.main"


def _stepper_stride(args, kwargs):
    stepper = kwargs.get("_stepper")
    if stepper is None:
        from levyfp.particles import _ParticleStepper
        stepper = _ParticleStepper(args[1], args[2])
    return stepper.stride


# span name -> (counter name, work done by one call); computed outside the span
COUNTERS = {
    # quadrature nodes x grid points, the node count taken from the call of
    # shell_quadrature_nodes made inside this span
    "operators.levy_integral_field": (
        "operators.levy_integral_field.node_ops",
        lambda tr, args, kwargs, result: tr.quad_nodes * args[0].values.size),
    "norms.weighted_seminorm": (
        "norms.weighted_seminorm.pairs",
        lambda tr, args, kwargs, result: args[0].values.size ** 2),
    # 64-bit uniforms generated for one step: particles x stride words
    "particles.step_ensemble": (
        "particles.step_ensemble.uniform_bytes",
        lambda tr, args, kwargs, result: args[0].n_particles * _stepper_stride(args, kwargs) * 8),
    "cli.write_csv": ("cli.artifact_bytes", lambda tr, args, kwargs, result: os.path.getsize(args[0])),
    "cli.write_json": ("cli.artifact_bytes", lambda tr, args, kwargs, result: os.path.getsize(args[0])),
}

# which end-to-end metric each layer metric should move, on which workload
LAYER_MAP = (
    ("config.parse_config.s", "setup_s", "all four workloads"),
    ("forward.solve.{calls,s,self_s}", "run_s",
     "sweep-spectral (self_s: FFT diffusion stage, RK combination, per-record bookkeeping)"),
    ("operators.transport_flux.{calls,s,share}", "run_s", "sweep-spectral (about 2% on decay-tempered)"),
    ("operators.divergence_of_flux.{calls,s,share}", "run_s", "sweep-spectral (about 2% on decay-tempered)"),
    ("operators.levy_integral_field.{calls,s,node_ops,share}", "run_s",
     "decay-tempered (zero calls on the other three)"),
    ("norms.weighted_seminorm.{calls,s,pairs,share}", "run_s", "oscillation-fractional"),
    ("adjoint.solve_backward.{s,self_s,self_share}", "run_s", "oscillation-fractional"),
    ("particles.step_ensemble.{calls,s,uniform_bytes,share}", "run_s and peak_rss_mb",
     "particles-fractional"),
    ("particles.simulate.self_s", "run_s", "particles-fractional (moment recording)"),
    ("norms.weighted_tv_norm.{calls,s}", "none (under 1% everywhere)", "regression guard"),
    ("rates.fit.{calls,s}", "none (under 1% everywhere)", "regression guard"),
    ("cli.write_csv.s, cli.write_json.s, cli.artifact_bytes", "none (under 1% everywhere)",
     "regression guard"),
)


class Tracer:
    """In-memory span recorder; install() wraps the targets, uninstall() restores."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = defaultdict(int)
        self.quad_nodes = 0
        self.missing = []
        self._stack = []
        self._originals = []

    def install(self):
        for name, targets in SPAN_TARGETS.items():
            for target in targets:
                self._replace(target, lambda fn, name=name: self.wrap(name, fn))
        self._replace("levyfp.operators.shell_quadrature_nodes", self._count_nodes)

    def uninstall(self):
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def _replace(self, target, make_wrapper):
        module_name, attr = target.rsplit(".", 1)
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            if target not in self.missing:
                self.missing.append(target)
                print(f"perfbench: trace target {target} not found; its layer reads 0",
                      file=sys.stderr)
            return
        self._originals.append((module, attr, fn))
        setattr(module, attr, make_wrapper(fn))

    def _count_nodes(self, fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.quad_nodes = len(result[0])
            return result
        return counted

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if counter is not None:
                key, work = counter
                self.counts[key] += work(self, args, kwargs, result)
            return result

        return traced

    def reset(self):
        self.spans = []
        self.counts = defaultdict(int)


def aggregate(spans):
    """Per span name: calls, inclusive seconds, and self seconds (the span's
    duration minus the part covered by its child spans)."""
    calls = defaultdict(int)
    inclusive = defaultdict(float)
    covered = defaultdict(float)
    for name, start, end, parent in spans:
        calls[name] += 1
        inclusive[name] += end - start
        if parent >= 0:
            covered[parent] += end - start
    self_s = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        self_s[name] += (end - start) - covered[index]
    return {name: {"calls": calls[name], "s": inclusive[name], "self_s": self_s[name]}
            for name in calls}
