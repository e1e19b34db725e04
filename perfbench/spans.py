"""In-memory span tracing of one dephasim sweep, from outside the package.

`traced(recorder)` replaces, for the duration of a `with` block, the public
functions that `dephasim.cli` and `dephasim.sweep` call by the names those
modules imported them under, plus `numpy.linalg.eigvalsh` (so each
eigensolve lands under the layer that asked for it). Every call becomes a
span: name, start, end, parent span and sweep id. `numpy.linalg.eigh` is
counted but gets no span, so its time stays in the layer that called it.

`layer_metrics` turns the spans of the traced sweeps into per-sweep self
times and counts.
"""

from __future__ import annotations

import contextlib
import statistics
import time

import numpy as np

import dephasim.cli
import dephasim.sweep

# (module, attribute) -> span name. The attribute is the name the caller
# looks up at call time, so wrapping it there is enough to see every call.
WRAPPED = {
    (dephasim.cli, "parse_config"): "config.parse_config",
    (dephasim.cli, "run_sweep"): "sweep.run_sweep",
    (dephasim.cli, "emit_csv"): "sweep.emit_csv",
    (dephasim.sweep, "load_schedule_file"): "config.load_schedule_file",
    (dephasim.sweep, "load_matrix_file"): "config.load_matrix_file",
    (dephasim.sweep, "build_schedule"): "qubit_boson.build_schedule",
    (dephasim.sweep, "validate_schedule"): "dephasing.validate_schedule",
    (dephasim.sweep, "thermal_state"): "fock.env_state",
    (dephasim.sweep, "coherent_state"): "fock.env_state",
    (dephasim.sweep, "fock_state"): "fock.env_state",
    (dephasim.sweep, "env_from_matrix"): "fock.env_state",
    (dephasim.sweep, "sqrtm_psd"): "linalg.sqrtm_psd",
    (dephasim.sweep, "propagators_at"): "dephasing.propagators_at",
    (dephasim.sweep, "fidelity_given_sqrt"): "linalg.fidelity_given_sqrt",
    (dephasim.sweep, "blocks_from_propagators"): "dephasing.blocks_from_propagators",
    (dephasim.sweep, "joint_state"): "dephasing.joint_state",
    (dephasim.sweep, "negativity"): "linalg.negativity",
    (np.linalg, "eigvalsh"): "linalg.eigvalsh",
}
ROOT_SPAN = "cli.main"
EIGVALSH = "linalg.eigvalsh"

# Span name -> metric that receives its self time. An eigvalsh span is
# reported on its own only under the parents named in EIGVALSH_METRIC;
# elsewhere its time is credited to its parent's metric.
SELF_METRIC = {
    ROOT_SPAN: "cli.main_self_s",
    "config.parse_config": "config.parse_config_s",
    "config.load_schedule_file": "config.load_schedule_file_s",
    "config.load_matrix_file": "config.load_matrix_file_s",
    "sweep.run_sweep": "sweep.run_sweep_self_s",
    "qubit_boson.build_schedule": "qubit_boson.build_schedule_s",
    "dephasing.validate_schedule": "dephasing.validate_schedule_s",
    "fock.env_state": "fock.env_state_s",
    "linalg.sqrtm_psd": "linalg.sqrtm_psd_s",
    "dephasing.propagators_at": "dephasing.propagators_at_s",
    "linalg.fidelity_given_sqrt": "linalg.fidelity_given_sqrt_s",
    "dephasing.blocks_from_propagators": "dephasing.blocks_from_propagators_s",
    "dephasing.joint_state": "dephasing.joint_state_s",
    "linalg.negativity": "linalg.negativity_s",
    "sweep.emit_csv": "sweep.emit_csv_s",
}
EIGVALSH_METRIC = {
    "sweep.run_sweep": "sweep.type1_eigvalsh_s",
    "linalg.fidelity_given_sqrt": "linalg.fidelity_eigvalsh_s",
    "linalg.negativity": "linalg.negativity_eigvalsh_s",
}

# The metrics that partition a traced sweep's root span.
SELF_TIMES = sorted({*SELF_METRIC.values(), *EIGVALSH_METRIC.values()})


def _eig_n3(a) -> int:
    """Sum of n^3 over the (possibly stacked) n x n matrices in a."""
    shape = np.shape(a)
    return int(np.prod(shape[:-2], dtype=np.int64)) * shape[-1] ** 3


class Recorder:
    """Spans and eigensolver counts, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, sweep id]
        self.eig_n3: dict[int, int] = {}  # sweep id -> sum of n^3 over eigensolves
        self.sweep_id = -1
        self._stack = [-1]

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapped(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1], self.sweep_id]
            spans.append(span)
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[1] = start
                stack.pop()

        return wrapped

    def count_eig(self, fn):
        def counted(a, *args, **kwargs):
            self.eig_n3[self.sweep_id] = self.eig_n3.get(self.sweep_id, 0) + _eig_n3(a)
            return fn(a, *args, **kwargs)

        return counted

    def sweep(self, main, argv) -> int:
        """Run main(argv) as one traced sweep under a root span."""
        self.sweep_id += 1
        return self.wrap(ROOT_SPAN, main)(argv)


@contextlib.contextmanager
def traced(recorder: Recorder):
    """Install the wrappers for the duration of the block."""
    saved = {key: getattr(*key) for key in WRAPPED}
    saved[(np.linalg, "eigh")] = np.linalg.eigh
    try:
        for (module, attr), name in WRAPPED.items():
            fn = getattr(module, attr)
            if name == EIGVALSH:
                fn = recorder.count_eig(fn)
            setattr(module, attr, recorder.wrap(name, fn))
        np.linalg.eigh = recorder.count_eig(np.linalg.eigh)
        yield recorder
    finally:
        for (module, attr), fn in saved.items():
            setattr(module, attr, fn)


def _metric_of(spans, idx: int) -> str:
    name, _, _, parent, _ = spans[idx]
    if name != EIGVALSH:
        return SELF_METRIC[name]
    parent_name = spans[parent][0]
    return EIGVALSH_METRIC.get(parent_name) or _metric_of(spans, parent)


def layer_metrics(recorder: Recorder, points: dict[int, int]) -> dict[str, float]:
    """Per-sweep means of layer self times and counts over the traced sweeps.

    points maps each traced sweep id to the grid points it wrote. The self
    times partition the root spans exactly, so they sum to the mean traced
    sweep time.
    """
    spans = recorder.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    sweeps = len(points)
    total_points = sum(points.values())
    out = dict.fromkeys(SELF_TIMES, 0.0)
    eigvalsh_calls = 0
    first_prop: dict[int, float] = {}
    later_prop: list[float] = []
    root_time = 0.0
    for idx, (name, start, end, parent, sweep) in enumerate(spans):
        duration = end - start
        out[_metric_of(spans, idx)] += (duration - child_time[idx]) / sweeps
        if name == ROOT_SPAN:
            root_time += duration
        elif name == EIGVALSH:
            eigvalsh_calls += 1
        elif name == "dephasing.propagators_at":
            if sweep in first_prop:
                later_prop.append(duration)
            else:
                first_prop[sweep] = duration
    out["dephasing.propagators_at.calls"] = (len(later_prop) + len(first_prop)) / sweeps
    median_later = statistics.median(later_prop) if later_prop else 0.0
    out["dephasing.schedule_cache_s"] = (
        sum(first - median_later for first in first_prop.values()) / sweeps
    )
    out["sweep.points"] = total_points / sweeps
    out["linalg.eigvalsh_calls_per_point"] = eigvalsh_calls / total_points
    out["linalg.eig_n3_per_point"] = sum(recorder.eig_n3.values()) / total_points
    out["trace.sweep_s"] = root_time / sweeps
    return out
