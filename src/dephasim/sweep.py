"""Time sweeps, CSV emission and cutoff-convergence reports.

run_sweep drives the whole pipeline for one configuration: resolve the model
and the initial environment, build the uniform time grid (always including
segment switch times so sharp features are never aliased), then evaluate the
entanglement measure, coherence and criterion residuals on it.

R(0) = A A^dag is factored once, by EnvDensity (A is d x r, r its rank), and
segment_chunks yields each chunk of a segment's grid points as (T, d, r)
stacks of V^dag Y_i, Y_i = w_i A, in a frame V shared by the pointers, which
no output sees. Batched numpy calls give the coherence |Tr(Y_0^dag Y_1)|,
the fidelity from r x r SVDs of Y_0^dag Y_1, each trace distance from a QR
of [Y_i | Y_j] and an eigensolve of dimension at most 2r, and the negativity
from the partial transposes of Z Z^dag, Z = [c_0 Y_0; ...; c_{N-1} Y_{N-1}],
of dimension at most N (N r), in runs that hold at most CHUNK_BYTES. The
type-2 commutator norms of P_a = w_a w_r^dag need the propagators: when
they are on (N >= 3), the identity is stepped instead of A and
Y_i = (V^dag w_i) A. The criteria and the negativity run over the pointers
with c_i != 0 only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .config import (
    AUTO_CUTOFF,
    CoherentEnv,
    FockEnv,
    QubitBosonModel,
    RunConfig,
    ThermalEnv,
    load_matrix_file,
    load_schedule_file,
)
from . import dephasing
from .dephasing import SegmentSchedule, equal_superposition, segment_chunks, validate_schedule
from .entanglement import measure_from_fidelity, supported_pointers, type2_norms
from .errors import (
    CutoffCapExceeded,
    InvalidArgument,
    NonFiniteError,
    NotHermitianGenerator,
    ValidationError,
)
from .fock import (
    CUTOFF_LADDER,
    EnvDensity,
    FockSpace,
    _warn_if_beyond_reach,
    coherent_state,
    env_from_matrix,
    fock_state,
    suggest_cutoff,
    thermal_state,
)
from .linalg import fidelity_of_factors, negativity_of_factors, trace_distance_of_factors
# Unused here, but perfbench/spans.py wraps these names in this module.
from .dephasing import blocks_from_propagators, joint_state, propagators_at  # noqa: F401
from .linalg import fidelity_given_sqrt, negativity, sqrtm_psd  # noqa: F401
from .qubit_boson import QubitBosonParams, build_schedule

__all__ = [
    "SweepRow",
    "CSV_HEADER",
    "run_sweep",
    "emit_csv",
    "ConvergenceReport",
    "convergence_report",
]

CSV_HEADER = "t,entanglement,coherence_norm,type1_max,type2_max,negativity,cutoff"


@dataclass(frozen=True)
class SweepRow:
    """One time point of a sweep; None marks outputs that were not computed."""

    t: float
    entanglement: float | None
    coherence_norm: float | None
    type1_max: float | None
    type2_max: float | None
    negativity: float | None
    cutoff: int


@dataclass(frozen=True)
class _ResolvedRun:
    schedule: SegmentSchedule
    env0: EnvDensity
    amplitudes: np.ndarray
    cutoff_used: int


def _resolve_cutoff(cfg: RunConfig) -> int:
    """Cutoff of a qubit_boson run; an explicit one is checked against the drive's reach."""
    env = cfg.initial_env
    model = cfg.model
    max_disp = 2.0 * max(abs(s.alpha) for s in model.segments) / abs(model.beta)
    coherent_amp = abs(env.zeta) if isinstance(env, CoherentEnv) else 0.0
    if cfg.cutoff != AUTO_CUTOFF:
        cutoff = int(cfg.cutoff)
        # the reach rule of suggest_cutoff; past it E reads a truncation artefact
        _warn_if_beyond_reach(
            coherent_amp + max_disp, FockSpace(cutoff), "drive displacement reach"
        )
        return cutoff
    kwargs = {
        "max_displacement": max_disp,
        "coherent_amp": coherent_amp,
        "tol": cfg.tolerances.cutoff_tail,
    }
    if isinstance(env, ThermalEnv):
        kwargs["theta"] = env.theta
    elif isinstance(env, FockEnv):
        kwargs["fock_level"] = env.n
    elif not isinstance(env, CoherentEnv):
        raise ValidationError("cutoff", "'auto' cannot be used with a matrix-file environment")
    return suggest_cutoff(**kwargs)


def _build_environment(cfg: RunConfig, cutoff: int) -> EnvDensity:
    env = cfg.initial_env
    if isinstance(env, ThermalEnv):
        return thermal_state(env.theta, FockSpace(cutoff))
    if isinstance(env, CoherentEnv):
        return coherent_state(env.zeta, FockSpace(cutoff))
    if isinstance(env, FockEnv):
        if env.n >= cutoff:
            raise ValidationError(
                "initial_env.fock.n", f"level {env.n} needs a cutoff above {env.n}"
            )
        return fock_state(env.n, FockSpace(cutoff))
    matrix = load_matrix_file(env.path)
    if matrix.shape[0] != cutoff:
        raise ValidationError(
            "initial_env.matrix_file",
            f"matrix dimension {matrix.shape[0]} does not match cutoff {cutoff}",
        )
    try:
        return env_from_matrix(matrix)
    except Exception as exc:
        raise ValidationError("initial_env.matrix_file", str(exc)) from exc


def _resolve(cfg: RunConfig, cutoff: int | None) -> _ResolvedRun:
    """The run's inputs; a qubit_boson model runs at cutoff, or at its resolved one if None."""
    if isinstance(cfg.model, QubitBosonModel):
        cutoff = _resolve_cutoff(cfg) if cutoff is None else cutoff
        params = QubitBosonParams(beta=cfg.model.beta, segments=cfg.model.segments, cutoff=cutoff)
        schedule = build_schedule(params)
        validate_schedule(schedule)
    else:
        schedule = load_schedule_file(cfg.model.path)
        cutoff = schedule.env_dim
        if cfg.cutoff != AUTO_CUTOFF and int(cfg.cutoff) != cutoff:
            raise ValidationError(
                "cutoff",
                f"schedule file fixes the environment dimension to {cutoff}",
            )
        try:
            validate_schedule(schedule)
        except NotHermitianGenerator as exc:
            raise ValidationError("model.schedule_file", str(exc)) from exc
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
    return _ResolvedRun(schedule=schedule, env0=env0, amplitudes=amps, cutoff_used=cutoff)


def _time_grid(cfg: RunConfig, schedule: SegmentSchedule) -> np.ndarray:
    t_max = cfg.time.t_max
    total = schedule.total_duration
    snap = dephasing._BOUNDARY_SNAP * max(1.0, total)  # the slack _locate allows
    if t_max > total + snap:
        raise ValidationError("time.t_max", f"exceeds the total schedule duration {total!r}")
    base = np.linspace(0.0, t_max, cfg.time.steps)
    interior = [b for b in schedule.boundaries[1:-1] if 0.0 < b < t_max]
    for b in interior:
        base[np.abs(base - b) <= snap] = b
    return np.unique(np.concatenate([base, interior])) if interior else base


def _rows(run: _ResolvedRun, flags, times: list[float], t0: float):
    """The sweep rows, from one stacked evaluation per chunk of each segment's times."""
    n, c, dim = run.schedule.system_dim, run.amplitudes, run.env0.dim
    a = run.env0.factor
    on = supported_pointers(c)  # the criteria and the negativity skip pointers with c_i = 0
    pairs = list(combinations(on, 2))
    # the type-2 products w_a w_r^dag need w_i itself: step the identity instead of A
    type2 = flags.type2 and len(on) >= 3
    stepped = np.eye(dim, dtype=complex) if type2 else a
    # negativity_of_factors takes pt_step points per call, so that their partial
    # transposes, N (N r) square after its QR, stay within the chunk budget too
    pt_dim = len(on) * min(dim, len(on) * a.shape[1])
    pt_step = max(1, dephasing.CHUNK_BYTES // (16 * pt_dim**2))
    rows = []
    # every output is invariant under the frame V shared by the pointers
    for first, stacks in segment_chunks(run.schedule, stepped, times, frame=True):
        ts = times[first : first + len(stacks[0])]
        finite = np.logical_and.reduce([np.isfinite(s).all(axis=(1, 2)) for s in stacks])
        if not finite.all():
            raise NonFiniteError(f"evolved state is not finite at t = {ts[np.argmin(finite)]!r}")
        ys = [s @ a for s in stacks] if type2 else stacks
        measure = coherence_norm = type1_max = type2_max = neg = [None] * len(ts)
        if flags.entanglement and n == 2:
            measure = measure_from_fidelity(c, fidelity_of_factors(ys[0], ys[1])).tolist()
        if flags.coherence and n >= 2 and c[0] * c[1] != 0:
            # |Tr R_01| = |Tr(Y_0 Y_1^dag)|
            coherence_norm = np.abs(np.sum(ys[1].conj() * ys[0], axis=(1, 2))).tolist()
        # a criterion with no condition left (no pair, fewer than 3 pointers for type-2) reads 0
        if flags.type1:
            distances = [trace_distance_of_factors(ys[i], ys[j]) for i, j in pairs]
            type1_max = np.max(distances, axis=0).tolist() if pairs else [0.0] * len(ts)
        if flags.type2:
            norms = list(type2_norms(stacks, on).values())
            type2_max = np.max(norms, axis=0).tolist() if norms else [0.0] * len(ts)
        if flags.negativity:
            z = np.concatenate([c[i] * ys[i] for i in on], axis=1)
            neg = np.concatenate([
                negativity_of_factors(z[k : k + pt_step], len(on))
                for k in range(0, len(ts), pt_step)
            ]).tolist()
        rows += [
            SweepRow(t + t0, *values, run.cutoff_used)
            for t, *values in zip(ts, measure, coherence_norm, type1_max, type2_max, neg)
        ]
    return rows


def run_sweep(cfg: RunConfig) -> list[SweepRow]:
    """Evaluate the configured quantities on the time grid.

    Times are uniform on [0, t_max] with segment boundaries inserted as extra
    sample points when they fall off-grid. The reported time column is offset
    by time.t_start. Output is deterministic for a fixed configuration.
    """
    return _sweep(cfg, None)


def _sweep(cfg: RunConfig, cutoff: int | None) -> list[SweepRow]:
    run = _resolve(cfg, cutoff)
    times = [float(t) for t in _time_grid(cfg, run.schedule)]
    return _rows(run, cfg.outputs, times, cfg.time.t_start)


def _format_value(value: float | None) -> str:
    return "" if value is None else format(value, ".12g")


def emit_csv(rows: list[SweepRow], destination) -> int:
    """Write rows as CSV and return the number of bytes written.

    The header and the 12-significant-digit float format are part of the
    interface; identical rows always produce identical bytes. destination is
    a path or a binary file object.
    """
    if not rows:
        raise InvalidArgument("no rows to emit")
    lines = [CSV_HEADER]
    for r in rows:
        values = (r.t, r.entanglement, r.coherence_norm, r.type1_max, r.type2_max, r.negativity)
        lines.append(",".join([*map(_format_value, values), str(r.cutoff)]))
    data = ("\n".join(lines) + "\n").encode("ascii")
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
    """
    if not isinstance(cfg.model, QubitBosonModel):
        raise ValidationError("model", "convergence reports require the qubit_boson model")
    if not (cfg.outputs.entanglement and cfg.outputs.coherence):
        raise ValidationError(
            "outputs", "convergence reports need entanglement and coherence enabled"
        )
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
