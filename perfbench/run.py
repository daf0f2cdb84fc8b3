"""levyfp benchmark: times fixed CLI experiments and checks their outputs.

Run from the root of a levyfp checkout:

    python3 perfbench/run.py --workload decay-tempered --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One workload is a closed loop: this process runs its experiment through
``levyfp.cli.main`` back to back, one at a time, for ``--seconds``.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it carries the
per-layer metrics from a traced run instead.  ``--workload all`` runs each
workload in its own process and prints every metric by name and unit.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import numpy as np

from tracing import LAYER_MAP, ROOT_SPAN, Tracer, aggregate
from workloads import WORKLOADS, CheckFailed, make_config

WORK_DIR = ".perfbench"
# fresh interpreters per run for setup_s; the median of several damps the
# process start-up noise of a shared machine
SETUP_REPEATS = 5
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); from levyfp.cli import main; "
              "sys.exit(main(['validate', sys.argv[1]]))")
# run_s is reported at a reference machine speed: the median experiment time
# is scaled by CALIBRATION_REF_S over the median time of a fixed numpy kernel,
# run after every experiment, that never touches levyfp.  A shared host's
# speed drifts by tens of percent over minutes; the kernel slows with it, so
# the scaled time holds still while a change to levyfp moves it in full.
# setup_s stays in wall seconds: scaled by kernel runs between its fresh
# interpreters, it spread more, not less.
CALIBRATION_REF_S = 0.1


def machine_facts() -> dict:
    import numpy
    import scipy

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name"))
    except (OSError, StopIteration):
        facts["cpu"] = platform.processor() or "unknown"
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else ():
        try:
            with open(os.path.join(cache_dir, index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(cache_dir, index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            facts[f"L{level}"] = size
    return facts


def tail(values) -> str:
    """The highest nearest-rank percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return "tail: none below 11 samples"
    rank = n - 10
    return f"p{100.0 * rank / n:.0f}={sorted(values)[rank - 1]:.6g}"


class Calibration:
    """Small-array numpy calls and FFTs, the mix the grid workloads run, in a
    fixed amount that does not depend on levyfp and adds no resident memory."""

    def __init__(self):
        self.values = np.random.default_rng(0).random(1024)

    def time(self) -> float:
        start = perf_counter()
        acc = 0.0
        for _ in range(1000):
            a = np.roll(self.values, 1) * 0.5 + self.values
            acc += float(np.abs(np.fft.ifft(np.fft.fft(a))).max())
        return perf_counter() - start


def artifact_digest(outdir: str) -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(outdir):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, outdir).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


class Runner:
    """One workload's experiment, run and checked repeatedly in this process."""

    def __init__(self, workload, seed: int):
        import levyfp.cli

        self.cli = levyfp.cli
        self.workload = workload
        self.work = os.path.join(WORK_DIR, workload.name)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.outdir = os.path.join(self.work, "out")
        self.config = make_config(workload, seed, self.outdir)
        self.config_path = os.path.join(self.work, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.config, fh, indent=1)
        self.argv = [workload.command, self.config_path]
        if workload.command == "sweep":
            self.argv += ["--workers", "1"]
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None  # artifact digest of the first run, the one checked in full
        self.check_error = None

    def _fail(self, message: str):
        self.failed += 1
        if message not in self.problems and len(self.problems) < 5:
            self.problems.append(message)

    def setup_once(self) -> float:
        """Wall seconds for a fresh interpreter to import levyfp.cli and
        validate the config, as `levyfp validate` does."""
        self.attempted += 1
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, self.config_path],
                              capture_output=True, text=True, timeout=120)
        elapsed = perf_counter() - start
        if proc.returncode != 0 or not proc.stdout.startswith(f"valid: {self.config['experiment']} "):
            self._fail(f"validate exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return elapsed

    def run_once(self, call=None):
        """Run the experiment once and check it; returns wall seconds, or
        None when the program raised."""
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.attempted += 1
        call = call or self.cli.main
        try:
            start = perf_counter()
            code = call(self.argv)
            elapsed = perf_counter() - start
        except Exception:
            self._fail("experiment raised:\n" + traceback.format_exc(limit=5))
            return None
        if code != 0:
            self._fail(f"exit code {code}")
            return elapsed
        digest = artifact_digest(self.outdir)
        if self.reference is None:
            self.reference = digest
            try:
                self.workload.check(self.config, self.outdir)
            except (CheckFailed, OSError, KeyError, ValueError) as exc:
                self.check_error = f"output check: {type(exc).__name__}: {exc}"
        if digest != self.reference:
            self._fail("artifacts differ from the first run of this set")
        elif self.check_error:
            self._fail(self.check_error)
        return elapsed


def repeat_for(seconds: float, step) -> None:
    """Call step() back to back until the window closes, at least once."""
    deadline = perf_counter() + seconds
    step()
    while perf_counter() < deadline:
        step()


def measure(runner: Runner, seconds: float) -> dict:
    setup = [runner.setup_once() for _ in range(SETUP_REPEATS)]
    calibration = Calibration()
    runner.run_once()  # warm-up: lazy imports, FFT plans, the full output check
    calibration.time()
    times, run_calibration = [], []

    def step():
        times.append(runner.run_once())
        run_calibration.append(calibration.time())

    repeat_for(seconds, step)
    times = [t for t in times if t is not None]
    if not times:
        raise RuntimeError("no experiment completed: " + "; ".join(runner.problems))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    run_scale = CALIBRATION_REF_S / statistics.median(run_calibration)
    print(f"run_s: n={len(times)} median={statistics.median(times):.6g} {tail(times)} "
          f"(wall seconds; reported x{run_scale:.4f} for machine speed)")
    print(f"setup_s: n={len(setup)} median={statistics.median(setup):.6g} {tail(setup)}")
    print(f"failed_frac: {runner.failed}/{runner.attempted}")
    return {
        "run_s": statistics.median(times) * run_scale,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024.0,
        "ok_frac": 1.0 - runner.failed / runner.attempted,
    }


def measure_traced(runner: Runner, seconds: float) -> dict:
    """Alternate untraced and traced runs; the layer metrics are means per
    traced run, the overhead is the difference of the two medians."""
    tracer = Tracer()
    runner.run_once()
    plain, traced, layers = [], [], []
    counts = {}
    last_spans = []

    def pair():
        plain.append(runner.run_once())
        tracer.install()
        try:
            traced.append(runner.run_once(tracer.wrap(ROOT_SPAN, runner.cli.main)))
        finally:
            tracer.uninstall()
        nonlocal last_spans
        last_spans = tracer.spans
        layers.append(aggregate(tracer.spans))
        for key, value in tracer.counts.items():
            counts[key] = counts.get(key, 0) + value
        tracer.reset()

    repeat_for(seconds, pair)
    plain = [t for t in plain if t is not None]
    traced = [t for t in traced if t is not None]
    if not plain or not traced:
        raise RuntimeError("no experiment completed: " + "; ".join(runner.problems))

    n = len(layers)
    names = {name for agg in layers for name in agg}
    total = {name: {key: sum(agg.get(name, {}).get(key, 0) for agg in layers) / n
                    for key in ("calls", "s", "self_s")} for name in names}
    root_s = total[ROOT_SPAN]["s"]
    metrics = {}
    for name, t in total.items():
        metrics.update({f"{name}.{key}": value for key, value in t.items()})
        metrics[f"{name}.share"] = t["s"] / root_s
        metrics[f"{name}.self_share"] = t["self_s"] / root_s
    metrics.update({key: value / n for key, value in counts.items()})
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)

    spans_path = os.path.join(runner.work, "spans.json")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"], "spans": last_spans}, fh)
    print(f"traced runs: n={n}, untraced median {statistics.median(plain):.6g} s, "
          f"traced median {statistics.median(traced):.6g} s; spans of the last run in {spans_path}")
    for name in sorted(total, key=lambda k: -total[k]["self_s"]):
        t = total[name]
        print(f"  {name:32s} calls {t['calls']:10.1f}  s {t['s']:9.5f}  self_s {t['self_s']:9.5f}  "
              f"share {t['s'] / root_s:6.1%}")
    print("layer metric -> end-to-end metric, workload:")
    for layer, e2e, where in LAYER_MAP:
        print(f"  {layer} -> {e2e}, {where}")
    return metrics


def run_workload(args, spec) -> int:
    sys.path.insert(0, os.path.abspath("src"))
    workload = WORKLOADS[args.workload]
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"why: {why}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine_facts().items()))
    runner = Runner(workload, args.seed)
    print(f"config: {runner.config_path}")
    if args.trace:
        values, wanted = measure_traced(runner, args.seconds), spec["per_layer"]
    else:
        values, wanted = measure(runner, args.seconds), spec["end_to_end"]
    for problem in runner.problems:
        print(f"FAILED: {problem}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def run_all(args, spec) -> int:
    """Every workload in its own process; prints each metric by name and unit."""
    all_correct = True
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}\n{proc.stderr}")
            all_correct = False
            continue
        result = json.loads(lines[-1])
        all_correct = all_correct and result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for line in lines[:-1]:
            if line.startswith(("FAILED", "run_s", "setup_s", "traced runs")):
                print(f"  {line}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:48s} {m['value']:>14.6g} {m['unit']}")
    print(f"all workloads correct: {all_correct}")
    return 0 if all_correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (os.path.isfile(os.path.join("src", "levyfp", "cli.py")) and os.path.isfile("BENCHMARK.json")):
        print("perfbench: run from the root of a levyfp checkout (need src/levyfp and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
