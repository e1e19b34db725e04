"""Measurement loop of the sweep benchmark (entry point: run.py).

Every timed sweep is the user path, in-process:
`dephasim.cli.main(["run", "--config", <json>, "--out", <csv>])` on freshly
drawn inputs, followed by the output checks of checks.py. A sweep fails when
the exit code is not 0 or a check fails. Sweeps run one after another in
this process; the only children are the fresh interpreters that time the
package import.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import dephasim.cli
from dephasim.config import (
    CoherentEnv,
    QubitBosonModel,
    ThermalEnv,
    load_matrix_file,
    load_schedule_file,
    parse_config,
)
from dephasim.dephasing import propagators_at, validate_schedule
from dephasim.fock import FockSpace, coherent_state, env_from_matrix, thermal_state
from dephasim.linalg import sqrtm_psd
from dephasim.qubit_boson import QubitBosonParams, build_schedule

from checks import check_sweep
from probe import PROBE_REF_S, Probe
from spans import SELF_TIMES, Recorder, layer_metrics, traced
from workloads import PROBE_DIM, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "points_per_s": "points/s",
    "sweep_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.main_self_s": "s",
    "config.parse_config_s": "s",
    "config.load_schedule_file_s": "s",
    "config.load_matrix_file_s": "s",
    "sweep.run_sweep_self_s": "s",
    "qubit_boson.build_schedule_s": "s",
    "dephasing.validate_schedule_s": "s",
    "fock.env_state_s": "s",
    "linalg.sqrtm_psd_s": "s",
    "dephasing.propagators_at_s": "s",
    "dephasing.schedule_cache_s": "s",
    "sweep.type1_eigvalsh_s": "s",
    "linalg.fidelity_given_sqrt_s": "s",
    "linalg.fidelity_eigvalsh_s": "s",
    "dephasing.blocks_from_propagators_s": "s",
    "dephasing.joint_state_s": "s",
    "linalg.negativity_s": "s",
    "linalg.negativity_eigvalsh_s": "s",
    "sweep.emit_csv_s": "s",
    "dephasing.propagators_at.calls": "count",
    "sweep.points": "count",
    "sweep.csv_bytes": "bytes",
    "linalg.eigvalsh_calls_per_point": "count/point",
    "linalg.eig_n3_per_point": "n3/point",
    "trace.sweep_s": "s",
    "trace.untraced_sweep_s": "s",
    "trace.overhead_frac": "frac",
    "trace.probe_s": "s",
}
# Repetitions of the set-up measurement per run; setup_s is their median.
SETUP_REPS = 5


@dataclass
class Sweep:
    seconds: float
    points: int
    csv_bytes: int
    problems: list[str]


class Runner:
    """Draws inputs, runs sweeps through the CLI and checks their output."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.draw_fn = WORKLOADS[workload]
        self.probe = Probe(PROBE_DIM[workload])
        self.inputs = np.random.default_rng(seed)
        self.samples = np.random.default_rng([seed, 1])  # points for the checks
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.check_s = 0.0

    def draw(self):
        draw = self.draw_fn(self.inputs)
        for name, doc in draw.documents.items():
            (self.workdir / name).write_text(json.dumps(doc), encoding="utf-8")
        config = self.workdir / "config.json"
        config.write_text(json.dumps(draw.config), encoding="utf-8")
        return draw, config

    def sweep(self, draw, config: Path, out: Path, main=dephasim.cli.main) -> Sweep:
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            start = time.perf_counter()
            try:
                code = main(["run", "--config", str(config), "--out", str(out)])
            except Exception:  # a crash is a failed sweep, not the end of the run
                code = None
                traceback.print_exc()
            seconds = time.perf_counter() - start
        if code == 0:
            start = time.perf_counter()
            problems = check_sweep(draw, out, self.samples)
            self.check_s += time.perf_counter() - start
        else:
            problems = [f"exit code {code}: {log.getvalue().strip()[-2000:]}"]
        self.attempted += 1
        if problems:
            self.fail("; ".join(problems))
        return Sweep(seconds, draw.points, out.stat().st_size if code == 0 else 0, problems)

    def fail(self, reason: str) -> None:
        self.failed += 1
        print(f"failed sweep: {reason}", file=sys.stderr)


def setup_calls(config: Path) -> None:
    """The public set-up calls a `run` pays before its first grid point."""
    cfg = parse_config(config.read_bytes(), base_dir=config.parent)
    if isinstance(cfg.model, QubitBosonModel):
        params = QubitBosonParams(beta=cfg.model.beta, segments=cfg.model.segments, cutoff=cfg.cutoff)
        schedule = build_schedule(params)
    else:
        schedule = load_schedule_file(cfg.model.path)
    validate_schedule(schedule)
    env = cfg.initial_env
    space = FockSpace(schedule.env_dim)
    if isinstance(env, ThermalEnv):
        env0 = thermal_state(env.theta, space)
    elif isinstance(env, CoherentEnv):
        env0 = coherent_state(env.zeta, space)
    else:
        env0 = env_from_matrix(load_matrix_file(env.path))
    if schedule.system_dim == 2:
        sqrtm_psd(env0.matrix)
    propagators_at(schedule, 0.0)  # fills the cached eigensystems and prefix products


def _wall(cmd: list[str], env: dict) -> float:
    start = time.perf_counter()
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure_setup(runner: Runner) -> dict:
    """setup_s: fresh-interpreter `import dephasim` minus a bare interpreter
    start, plus the set-up calls on this workload's inputs, tracing off;
    each repetition is rescaled by the probe run just before it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    bare = [sys.executable, "-c", "pass"]
    imp = [sys.executable, "-c", "import dephasim"]
    _wall(imp, env)  # writes bytecode caches and warms the file cache
    raw, scaled = [], []
    for rep in range(SETUP_REPS):
        probe_s = runner.probe()
        if rep % 2:
            imported = _wall(imp, env)
            started = _wall(bare, env)
        else:
            started = _wall(bare, env)
            imported = _wall(imp, env)
        _, config = runner.draw()
        start = time.perf_counter()
        setup_calls(config)
        seconds = imported - started + time.perf_counter() - start
        raw.append(seconds)
        scaled.append(seconds * PROBE_REF_S / probe_s)
    return {"setup_s": statistics.median(scaled), "setup_s_raw": statistics.median(raw)}


def high_percentile(samples: list[float]):
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(samples) * (1 - p / 100) >= 10:
            return {"percentile": p, "value": float(np.percentile(samples, p))}
    return None


def run_untraced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics; times are rescaled to the probe's reference speed
    (see probe.py) and the raw figures go to the samples line."""
    setup = measure_setup(runner)
    out = runner.workdir / "out.csv"
    runner.sweep(*runner.draw(), out)  # warm-up: first-call costs of numpy and LAPACK
    sweeps, probes = [], []
    deadline = time.perf_counter() + seconds
    while not sweeps or time.perf_counter() < deadline:
        probes.append(runner.probe())
        sweeps.append(runner.sweep(*runner.draw(), out))
    probes.append(runner.probe())
    raw = [s.seconds for s in sweeps]
    # each sweep against the mean of the probes just before and just after it
    scaled = [t * 2 * PROBE_REF_S / (a + b) for t, a, b in zip(raw, probes, probes[1:])]
    points = sum(s.points for s in sweeps if not s.problems)
    metrics = {
        "points_per_s": points / sum(raw) * statistics.fmean(probes) / PROBE_REF_S,
        "sweep_s_p50": statistics.median(scaled),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {
        "sweeps": len(sweeps),
        "sweep_s_high": high_percentile(scaled),
        "probe_s_mean": statistics.fmean(probes),
        "raw": {"points_per_s": points / sum(raw), "sweep_s_p50": statistics.median(raw),
                "setup_s": setup["setup_s_raw"]},
        "setup_reps": SETUP_REPS,
        "check_s": runner.check_s,
    }
    return metrics, samples


def run_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Pairs of untraced and traced sweeps on the same inputs, alternating
    which goes first; the traced ones give the per-layer split. Times here
    are raw wall times; trace.probe_s gives the machine speed they ran at."""
    recorder = Recorder()
    plain_out, traced_out = runner.workdir / "plain.csv", runner.workdir / "traced.csv"

    def traced_main(argv):
        with traced(recorder):
            return recorder.sweep(dephasim.cli.main, argv)

    runner.sweep(*runner.draw(), plain_out)  # warm-up
    points, csv_bytes, probes, plain_s, traced_s = {}, [], [], 0.0, 0.0
    deadline = time.perf_counter() + seconds
    while not points or time.perf_counter() < deadline:
        probes.append(runner.probe())
        draw, config = runner.draw()
        passed = True
        first_traced = len(points) % 2 == 1
        for is_traced in (first_traced, not first_traced):
            if is_traced:
                sweep = runner.sweep(draw, config, traced_out, traced_main)
                traced_s += sweep.seconds
                points[recorder.sweep_id] = sweep.points
                csv_bytes.append(sweep.csv_bytes)
            else:
                sweep = runner.sweep(draw, config, plain_out)
                plain_s += sweep.seconds
            passed = passed and not sweep.problems
        if passed and plain_out.read_bytes() != traced_out.read_bytes():
            runner.fail("traced and untraced CSVs differ")
    metrics = layer_metrics(recorder, points)
    metrics["sweep.csv_bytes"] = statistics.fmean(csv_bytes)
    metrics["trace.untraced_sweep_s"] = plain_s / len(points)
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1
    metrics["trace.probe_s"] = statistics.fmean(probes)
    self_sum = sum(metrics[name] for name in SELF_TIMES)
    samples = {"traced_sweeps": len(points), "self_time_sum_s": self_sum,
               "traced_sweep_s": metrics["trace.sweep_s"]}
    return metrics, samples


def run_environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "libscipy_openblas*")):
        with contextlib.suppress(OSError, AttributeError):
            get = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
            get.restype = ctypes.c_int
            threads = get()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dephasim sweep benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        runner = Runner(args.workload, args.seed, Path(workdir))
        if args.trace:
            values, samples = run_traced(runner, args.seconds)
            units = PER_LAYER
        else:
            values, samples = run_untraced(runner, args.seconds)
            units = END_TO_END
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} unmatched")
    print(json.dumps({"env": run_environment(args)}))
    print(json.dumps({"samples": samples}))
    for name, unit in units.items():
        print(f"{args.workload:>13} {name:<36} {values[name]:>14.6g} {unit}")
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1
