"""Time sweeps, CSV emission and cutoff-convergence reports.

evaluate is the one evaluator of the per-time quantities: the SweepRow of each time, with
the entanglement measure, the coherence, the type-1 and type-2 criterion residuals and the
negativity (entangled iff row.type1_max > tol or row.type2_max > tol). It forms each column
from the stacks of segment_chunks, in a frame shared by the pointers that no output sees,
by the Route that route chooses; the criteria and the negativity skip pointers with c_i = 0.
run_sweep resolves a configuration into evaluate's inputs (an explicit cutoff past the
drive's reach warns at its caller) on a uniform time grid that holds the segment switches.
"""

from __future__ import annotations

import os
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, replace
from itertools import chain, combinations, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import (
    AUTO_CUTOFF,
    CoherentEnv,
    FockEnv,
    MatrixFileEnv,
    OutputFlags,
    QubitBosonModel,
    RunConfig,
    ThermalEnv,
    load_matrix_file,
    load_schedule_file,
)
from . import dephasing, linalg
from .dephasing import SegmentSchedule, equal_superposition, segment_chunks
from .entanglement import measure_from_fidelity, type2_norms
from .errors import (
    CutoffCapExceeded,
    DephasimError,
    InvalidArgument,
    NotHermitianGenerator,
    ValidationError,
)
from .fock import (
    CUTOFF_LADDER,
    EnvDensity,
    FockSpace,
    _beyond_reach,
    coherent_state,
    env_from_matrix,
    fock_state,
    suggest_cutoff,
    thermal_state,
)
from .linalg import _direct_path, _half_trace_norm, dagger, fidelity_of_factors
from .linalg import negativity_of_factors, trace_distance_of_factors
# Unused here, but perfbench/spans.py wraps these names in this module.
from .dephasing import blocks_from_propagators, joint_state, propagators_at  # noqa: F401
from .dephasing import validate_schedule  # noqa: F401
from .linalg import fidelity_given_sqrt, negativity, sqrtm_psd  # noqa: F401
from .qubit_boson import QubitBosonParams, build_schedule

__all__ = [
    "SweepRow",
    "CSV_HEADER",
    "evaluate",
    "run_sweep",
    "emit_csv",
    "ConvergenceReport",
    "convergence_report",
]

class SweepRow(NamedTuple):
    """One time point of a sweep; None marks outputs that were not computed."""

    t: float
    entanglement: float | None
    coherence_norm: float | None
    type1_max: float | None
    type2_max: float | None
    negativity: float | None
    cutoff: int


CSV_HEADER = ",".join(SweepRow._fields)


def _resolve_cutoff(cfg: RunConfig) -> int:
    """Cutoff of a qubit_boson run; an explicit one is checked against the drive's reach."""
    env = cfg.initial_env
    # QubitBosonParams raises for beta = 0 or no segment, which the reach cannot take
    params = QubitBosonParams(cfg.model.beta, cfg.model.segments, CUTOFF_LADDER[0])
    drive = 2.0 * max(abs(s.alpha) for s in params.segments) / abs(params.beta)
    reach = abs(getattr(env, "zeta", 0.0)) + drive  # a coherent R(0) starts |zeta| out
    if cfg.cutoff != AUTO_CUTOFF:
        cutoff = int(cfg.cutoff)
        # the reach rule of suggest_cutoff; past it E reads a truncation artefact
        if _beyond_reach(reach, cutoff):
            warnings.warn(
                f"drive displacement reach |z|^2 = {reach * reach:.3g} exceeds cutoff/4 = "
                f"{cutoff / 4:.3g}; truncation errors may be significant",
                stacklevel=3,  # the caller of run_sweep or convergence_report, which call this
            )
        return cutoff
    if isinstance(env, MatrixFileEnv):
        raise ValidationError("cutoff", "'auto' cannot be used with a matrix-file environment")
    if not np.isfinite(reach):  # no cutoff holds the drive
        raise ValidationError("model.qubit_boson", f"the drive's reach {reach} overflows")
    return suggest_cutoff(
        theta=getattr(env, "theta", 0.0),
        fock_level=getattr(env, "n", 0),
        max_displacement=reach,
    )


def _build_environment(cfg: RunConfig, cutoff: int) -> EnvDensity:
    env = cfg.initial_env
    if isinstance(env, ThermalEnv):
        return thermal_state(env.theta, FockSpace(cutoff))
    if isinstance(env, CoherentEnv):
        return coherent_state(env.zeta, FockSpace(cutoff))
    if isinstance(env, FockEnv):
        try:  # fock_state holds the rule 0 <= n < cutoff
            return fock_state(env.n, FockSpace(cutoff))
        except InvalidArgument as exc:
            raise ValidationError("initial_env.fock.n", str(exc)) from exc
    matrix = load_matrix_file(env.path)
    if matrix.shape[0] != cutoff:
        raise ValidationError(
            "initial_env.matrix_file",
            f"matrix dimension {matrix.shape[0]} does not match cutoff {cutoff}",
        )
    try:  # every failure of EnvDensity's checks is a DephasimError
        return env_from_matrix(matrix)
    except DephasimError as exc:
        raise ValidationError("initial_env.matrix_file", str(exc)) from exc


def _resolve(cfg: RunConfig, cutoff: int | None):
    """(schedule, R(0), amplitudes) at the resolved cutoff of a qubit_boson model; None for a file."""
    try:  # SegmentSchedule's rules: durations with a finite sum, Hermitian generators
        schedule = (load_schedule_file(cfg.model.path) if cutoff is None else
                    build_schedule(QubitBosonParams(cfg.model.beta, cfg.model.segments, cutoff)))
    except InvalidArgument as exc:
        raise ValidationError("model", str(exc)) from exc
    except NotHermitianGenerator as exc:  # a qubit_boson generator is Hermitian by construction
        raise ValidationError("model.schedule_file", str(exc)) from exc
    if cutoff is None:
        cutoff = schedule.env_dim
        if cfg.cutoff != AUTO_CUTOFF and int(cfg.cutoff) != cutoff:
            raise ValidationError(
                "cutoff",
                f"schedule file fixes the environment dimension to {cutoff}",
            )
    env0 = _build_environment(cfg, cutoff)

    if cfg.amplitudes is None:
        amps = equal_superposition(schedule.system_dim)
    else:
        amps = np.asarray(cfg.amplitudes, dtype=complex)
        if amps.size != schedule.system_dim:
            raise ValidationError(
                "amplitudes",
                f"{amps.size} amplitudes for a system of dimension {schedule.system_dim}",
            )
    return schedule, env0, amps


def _time_grid(cfg: RunConfig, schedule: SegmentSchedule) -> np.ndarray:
    t_max = cfg.time.t_max
    total = schedule.total_duration
    snap = schedule.boundary_slack  # the slack _locate allows
    if t_max > total + snap:
        raise ValidationError("time.t_max", f"exceeds the total schedule duration {total!r}")
    try:
        base = np.linspace(0.0, t_max, cfg.time.steps)
    except (ValueError, IndexError, MemoryError):  # past numpy's size limit or the allocator's
        raise ValidationError("time.steps", "too many points for one array") from None
    interior = [b for b in schedule.boundaries[1:-1] if 0.0 < b < t_max]
    for b in interior:
        base[np.abs(base - b) <= snap] = b
    return np.unique(np.concatenate([base, interior])) if interior else base


def _gram_difference(frame, grams, tau, i: int, j: int) -> np.ndarray:
    """held_i - held_j at tau (held_k = Phi_k G_k Phi_k^dag), a phased held_k in one new buffer."""
    held = []
    for w, g in ((frame[k][0], grams[k]) for k in (i, j)):
        if w is not None:
            p = np.exp(-1j * w * tau[:, None])
            g = np.multiply(p[:, :, None], g)
            g *= p[:, None, :].conj()
        held.append(g)
    return np.subtract(*held, out=None if frame[j][0] is None else held[1])


class Route(NamedTuple):
    """The kernel that forms each column of a segment (route); None where the column is off."""

    fidelity: str | None  # a qubit's E: "rank_one", "worker" or "svd"
    type1: str | None  # "rank_one", "qr", "gram" or "direct"
    type2: str | None  # "identity"
    negativity: str | None  # "qr" or "direct"


def route(n, r, on, d_k, framed, outputs, one_blas_thread) -> Route:
    """The Route of n pointers, on those with c_i != 0, an R(0) of rank r and d_k rows.

    "rank_one" is linalg._rank_one_pair, one step per qubit chunk; "worker" puts the SVDs on
    a thread beside type-1, alive only in evaluate, in chunks of ceil(501 / r) points or more
    (numpy releases the GIL past 500 values, README); "qr" and "direct" are the factor
    kernels' paths (linalg._direct_path); "gram" phases G_i = B_i B_i^dag, formed once per
    frame; "identity" steps the identity instead of A, for type-2's w_a w_r^dag.
    """
    type2 = "identity" if outputs.type2 and len(on) >= 3 else None
    fidelity = ("rank_one" if r == 1 else "worker"
                if outputs.type1 and len(on) >= 2 and one_blas_thread else "svd")
    type1 = ("rank_one" if r == 1 else "qr" if not _direct_path(2 * r, d_k) else
             "gram" if framed and type2 is None else "direct")
    neg = "direct" if _direct_path(len(on) * r, d_k) else "qr"
    return Route(fidelity if outputs.entanglement and n == 2 else None,
                 type1 if outputs.type1 else None, type2, neg if outputs.negativity else None)


def evaluate(
    schedule: SegmentSchedule, env0: EnvDensity, c, times, outputs: OutputFlags = OutputFlags(),
    *, t_start: float = 0.0,
) -> list[SweepRow]:
    """The SweepRow at each t of times, in order, reported at t_start + t with cutoff env0.dim.

    The times of each segment are evaluated together, each column by its Route. The rows,
    and so the CSV bytes, are fixed for fixed inputs, numpy and BLAS build and BLAS thread
    count: an SVD can round differently on another thread count.
    """
    n, dim, a, r = schedule.system_dim, env0.dim, env0.factor, env0.factor.shape[1]
    c = dephasing._checked_amplitudes(c, n)
    times = np.asarray(times, dtype=float).reshape(-1).tolist()
    on = [i for i, ci in enumerate(c) if ci != 0]  # the criteria and the negativity skip c_i = 0
    pairs = list(combinations(on, 2))
    # one BLAS thread, as the environment sets it for every thread (read in OpenBLAS's order)
    blas = map(os.environ.get, ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
    one = next(filter(None, blas), None) == os.environ.get("MKL_NUM_THREADS", "1") == "1"
    run = route(n, r, on, dim, False, outputs, one)  # the stepped factor, worker and chunks
    worker = run.fidelity == "worker"
    if worker:  # imported here, so that import dephasim loads no concurrent.futures
        from concurrent.futures import ThreadPoolExecutor
    stepped = np.eye(dim, dtype=complex) if run.type2 else a
    chunks = segment_chunks(schedule, stepped, times, frame=True, points=-(-501 // r) * worker)
    rows, segment = [None] * len(times), ()
    with ThreadPoolExecutor(1) if worker else nullcontext() as pool:
        for first, frame, tau, stacks in chunks:
            ts = times[first : first + len(tau)]
            ys = [s @ a for s in stacks] if run.type2 else stacks
            if frame is not segment:  # a new frame, or the first unframed chunk: d_k rows
                segment, ro = frame, route(n, r, on, ys[0].shape[-2], bool(frame), outputs, one)
                grams = [b @ dagger(b) for _, b in frame] if ro.type1 == "gram" else None
            y0 = ys[0][:1] if frame else ys[0]  # B_0 at every t in a shared frame: read it once
            measure = coherence_norm = type1_max = type2_max = neg = f = [None] * len(ts)
            pure = linalg._rank_one_pair(y0, ys[1]) if "rank_one" in ro[:2] and n == 2 else None
            if ro.fidelity:
                # a^dag b is allocated here: memory a thread frees stays in its malloc arena
                m = None if pure is not None else np.empty((len(ts), r, r), complex)
                f = (linalg._rank_one_fidelity(*pure) if pure is not None else
                     pool.submit(fidelity_of_factors, y0, ys[1], out=m) if worker else
                     fidelity_of_factors(y0, ys[1], out=m))
            try:
                if outputs.coherence and n >= 2 and c[0] * c[1] != 0:
                    # |Tr R_01| = |Tr(Y_0 Y_1^dag)|
                    coherence_norm = np.abs(np.sum(ys[1].conj() * y0, axis=(1, 2))).tolist()
                # a criterion with no condition left (no pair, fewer than 3 pointers) reads 0
                if ro.type1:
                    if ro.type1 == "gram":
                        distances = [_half_trace_norm(_gram_difference(frame, grams, tau, i, j))
                                     for i, j in pairs]
                    elif pure is not None:
                        distances = [linalg._rank_one_distance(*pure) for _ in pairs]
                    else:  # the route the kernel takes by the same rule
                        distances = [trace_distance_of_factors(ys[i], ys[j]) for i, j in pairs]
                    type1_max = np.max(distances, axis=0).tolist() if pairs else [0.0] * len(ts)
            finally:  # the worker's error first, as the serial order raises it
                f = f.result() if worker else f
            if ro.fidelity:
                measure = measure_from_fidelity(c, f).tolist()
            if outputs.type2:
                norms = list(type2_norms(stacks, on).values())
                type2_max = np.max(norms, axis=0).tolist() if norms else [0.0] * len(ts)
            if ro.negativity:  # the route the kernel takes by the same rule
                z = np.concatenate([c[i] * ys[i] for i in on], axis=1)
                neg = negativity_of_factors(z, len(on)).tolist()
            rows[first : first + len(ts)] = map(
                SweepRow, [t + t_start for t in ts], measure, coherence_norm,
                type1_max, type2_max, neg, repeat(dim),
            )
    return rows


def run_sweep(cfg: RunConfig) -> list[SweepRow]:
    """Evaluate the configured quantities on the time grid.

    Times are uniform on [0, t_max] with segment boundaries inserted as extra
    sample points when they fall off-grid. The reported time column is offset
    by time.t_start. The bytes are fixed for a fixed configuration, numpy and
    BLAS build and BLAS thread count.
    """
    cutoff = _resolve_cutoff(cfg) if isinstance(cfg.model, QubitBosonModel) else None
    return _sweep(cfg, cutoff)


def _sweep(cfg: RunConfig, cutoff: int | None) -> list[SweepRow]:
    schedule, env0, c = _resolve(cfg, cutoff)
    times = _time_grid(cfg, schedule)
    return evaluate(schedule, env0, c, times, cfg.outputs, t_start=cfg.time.t_start)


def emit_csv(rows: list[SweepRow], destination) -> int:
    """Write rows as CSV and return the number of bytes written.

    The header and the 12-significant-digit float format are part of the
    interface; identical rows always produce identical bytes. destination is
    a path or a binary file object.
    """
    if not rows:
        raise InvalidArgument("no rows to emit")
    *floats, cutoffs = zip(*rows)
    specs, columns = [], []
    for col in floats:  # "%.12g" % v is format(v, ".12g") byte for byte
        cells = col if None not in col else ["" if v is None else "%.12g" % v for v in col]
        specs.append("%.12g" if cells is col else "%s" if any(cells) else "")
        columns += [cells] if specs[-1] else []  # a column of None only is empty
    template = ",".join([*specs, "%s"]) + "\n"  # one % formats every row
    values = tuple(chain.from_iterable(zip(*columns, cutoffs)))
    data = (CSV_HEADER + "\n" + template * len(rows) % values).encode("ascii")
    if hasattr(destination, "write"):
        destination.write(data)
    else:
        Path(destination).write_bytes(data)
    return len(data)


@dataclass(frozen=True)
class ConvergenceReport:
    """Cutoff-doubling stability of the entanglement and coherence curves."""

    cutoff: int
    doubled_cutoff: int
    max_abs_d_entanglement: float
    max_abs_d_coherence: float
    points: int
    t_max_d_entanglement: float  # reported time of the worst |dE|, the first if tied
    t_max_d_coherence: float

    def render(self) -> str:
        return "\n".join([
            f"cutoff        : {self.cutoff} vs {self.doubled_cutoff}",
            f"grid points   : {self.points}",
            f"max |dE|      : {self.max_abs_d_entanglement:.3e}"
            f" at t = {self.t_max_d_entanglement:g}",
            f"max |dcoh|    : {self.max_abs_d_coherence:.3e} at t = {self.t_max_d_coherence:g}",
        ])


def convergence_report(cfg: RunConfig) -> ConvergenceReport:
    """Run the sweep at the configured cutoff and at twice the cutoff.

    Reports the largest pointwise change of the entanglement measure and of
    the normalized coherence over the grid, and the time where each occurs.
    Both sweeps evaluate E and the coherence only: cfg.outputs is not read.
    """
    if not isinstance(cfg.model, QubitBosonModel):
        raise ValidationError("model", "convergence reports require the qubit_boson model")
    cfg = replace(cfg, outputs=OutputFlags(type1=False, type2=False))  # E and the coherence
    cutoff = _resolve_cutoff(cfg)
    doubled = 2 * cutoff
    if doubled > CUTOFF_LADDER[-1]:
        raise CutoffCapExceeded(f"doubling cutoff {cutoff} exceeds the cap {CUTOFF_LADDER[-1]}")
    rows_lo = _sweep(cfg, cutoff)
    rows_hi = _sweep(cfg, doubled)

    def worst(column: str) -> tuple[float, float]:
        """Largest |change| of a column (0 where not computed) and the first t it occurs."""
        lo, hi = ([getattr(row, column) for row in rows] for rows in (rows_lo, rows_hi))
        change = np.nan_to_num(np.abs(np.array(lo, dtype=float) - np.array(hi, dtype=float)))
        return float(change.max()), rows_lo[int(np.argmax(change))].t

    d_ent, t_ent = worst("entanglement")
    d_coh, t_coh = worst("coherence_norm")
    return ConvergenceReport(
        cutoff=cutoff,
        doubled_cutoff=doubled,
        max_abs_d_entanglement=d_ent,
        max_abs_d_coherence=d_coh,
        points=len(rows_lo),
        t_max_d_entanglement=t_ent,
        t_max_d_coherence=t_coh,
    )
