"""Time sweeps, CSV emission and cutoff-convergence reports.

run_sweep drives the whole pipeline for one configuration: resolve the model
and the initial environment, build the uniform time grid (always including
segment switch times so sharp features are never aliased), then evaluate the
entanglement measure, coherence and criterion residuals point by point.

Per-point evaluation works on factors: R(0) = A A^dag is factored once per
sweep (A is d x r, r the numerical rank of R(0)) and evolve_factor yields
Y_i(t) = w_i(t) A, so R_ij = Y_i Y_j^dag. The coherence is |vdot(Y_1, Y_0)|,
the fidelity an r x r SVD of Y_0^dag Y_1 and each trace distance an
eigensolve of dimension at most 2r. Only the type-2 commutators (N >= 3) and
the negativity need the d x d propagators w_i; when either is on, the same
evolve_factor call steps the identity instead of A and Y_i = w_i A is taken
from its output. The identities are exact and are asserted against the
direct block computation in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .dephasing import (
    ConditionalPropagatorSet,
    SegmentSchedule,
    blocks_from_propagators,
    equal_superposition,
    evolve_factor,
    joint_state,
    validate_schedule,
)
from .entanglement import measure_from_fidelity, type2_residuals
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
from .linalg import fidelity_of_factors, negativity, psd_factor, trace_distance_of_factors
# Unused here, but perfbench/spans.py wraps these names in this module.
from .dephasing import propagators_at  # noqa: F401
from .linalg import fidelity_given_sqrt, sqrtm_psd  # noqa: F401
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
        raise ValidationError(
            "cutoff", "'auto' cannot be used with a matrix-file environment"
        )
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


def _resolve(cfg: RunConfig, *, cutoff_override: int | None = None) -> _ResolvedRun:
    if isinstance(cfg.model, QubitBosonModel):
        cutoff = cutoff_override if cutoff_override is not None else _resolve_cutoff(cfg)
        params = QubitBosonParams(
            beta=cfg.model.beta, segments=cfg.model.segments, cutoff=cutoff
        )
        schedule = build_schedule(params)
        validate_schedule(schedule)
    else:
        if cutoff_override is not None:
            raise ValidationError("cutoff", "cannot override the cutoff of a schedule file")
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
    if t_max > total + 1e-9:
        raise ValidationError(
            "time.t_max", f"exceeds the total schedule duration {total!r}"
        )
    base = np.linspace(0.0, t_max, cfg.time.steps)
    interior = [b for b in schedule.boundaries[1:-1] if 0.0 < b < t_max]
    snap = 1e-12 * max(1.0, t_max)
    for b in interior:
        base[np.abs(base - b) <= snap] = b
    return np.unique(np.concatenate([base, interior])) if interior else base


def _points(run: _ResolvedRun, flags, times):
    """(t, (w_i(t) A)_i, propagators or None) per time, with R(0) = A A^dag."""
    a = psd_factor(run.env0.matrix)
    # type-2 (N >= 3) and the negativity need w_i itself: step the identity instead of A
    needs_w = flags.negativity or (flags.type2 and run.schedule.system_dim >= 3)
    stepped = np.eye(run.env0.dim, dtype=complex) if needs_w else a
    for t, out in zip(times, evolve_factor(run.schedule, stepped, times)):
        if needs_w:
            yield t, tuple(w @ a for w in out), ConditionalPropagatorSet(t=t, w=out)
        else:
            yield t, out, None


def _row(run: _ResolvedRun, flags, t: float, t_reported: float, ys, props) -> SweepRow:
    """One grid point from the evolved factors ys[i] = w_i(t) A of R(0) = A A^dag."""
    if not all(np.isfinite(m).all() for m in (props.w if props else ys)):
        raise NonFiniteError(f"evolved state is not finite at t = {t!r}")
    n, c = len(ys), run.amplitudes
    measure = coherence_norm = type1_max = neg = None
    if flags.entanglement and n == 2:
        measure = measure_from_fidelity(c, fidelity_of_factors(ys[0], ys[1]))
    if flags.coherence and n >= 2 and c[0] * c[1] != 0:
        # |Tr R_01| = |Tr(Y_0 Y_1^dag)|
        coherence_norm = float(abs(np.vdot(ys[1], ys[0])))
    if flags.type1:
        type1_max = max(
            trace_distance_of_factors(ys[i], ys[j]) for i in range(n) for j in range(i + 1, n)
        )
    type2_max = 0.0 if flags.type2 else None  # qubits have no second-type conditions
    if flags.type2 and n >= 3:
        type2_max = max(r.residual for r in type2_residuals(props))
    if flags.negativity:
        blocks = blocks_from_propagators(props, run.env0, c)
        neg = negativity(joint_state(blocks), n, run.env0.dim)
    return SweepRow(t_reported, measure, coherence_norm, type1_max, type2_max, neg, run.cutoff_used)


def run_sweep(cfg: RunConfig, *, cutoff_override: int | None = None) -> list[SweepRow]:
    """Evaluate the configured quantities on the time grid.

    Times are uniform on [0, t_max] with segment boundaries inserted as extra
    sample points when they fall off-grid. The reported time column is offset
    by time.t_start. Output is deterministic for a fixed configuration.
    """
    run = _resolve(cfg, cutoff_override=cutoff_override)
    times = [float(t) for t in _time_grid(cfg, run.schedule)]
    t0 = cfg.time.t_start
    points = _points(run, cfg.outputs, times)
    return [_row(run, cfg.outputs, t, t + t0, ys, props) for t, ys, props in points]


def _format_value(value: float | None) -> str:
    if value is None:
        return ""
    return format(value, ".12g")


def emit_csv(rows: list[SweepRow], destination) -> int:
    """Write rows as CSV and return the number of bytes written.

    The header and the 12-significant-digit float format are part of the
    interface; identical rows always produce identical bytes. destination is
    a path or a binary file object.
    """
    if not rows:
        raise InvalidArgument("no rows to emit")
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                (
                    _format_value(row.t),
                    _format_value(row.entanglement),
                    _format_value(row.coherence_norm),
                    _format_value(row.type1_max),
                    _format_value(row.type2_max),
                    _format_value(row.negativity),
                    str(row.cutoff),
                )
            )
        )
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

    def render(self) -> str:
        return "\n".join(
            (
                f"cutoff        : {self.cutoff} vs {self.doubled_cutoff}",
                f"grid points   : {self.points}",
                f"max |dE|      : {self.max_abs_d_entanglement:.3e}",
                f"max |dcoh|    : {self.max_abs_d_coherence:.3e}",
            )
        )


def convergence_report(cfg: RunConfig) -> ConvergenceReport:
    """Run the sweep at the configured cutoff and at twice the cutoff.

    Reports the largest pointwise change of the entanglement measure and of
    the normalized coherence over the grid.
    """
    if not isinstance(cfg.model, QubitBosonModel):
        raise ValidationError(
            "model", "convergence reports require the qubit_boson model"
        )
    if not (cfg.outputs.entanglement and cfg.outputs.coherence):
        raise ValidationError(
            "outputs", "convergence reports need entanglement and coherence enabled"
        )
    cutoff = _resolve_cutoff(cfg)
    doubled = 2 * cutoff
    if doubled > CUTOFF_LADDER[-1]:
        raise CutoffCapExceeded(
            f"doubling cutoff {cutoff} exceeds the cap {CUTOFF_LADDER[-1]}"
        )
    rows_lo = run_sweep(cfg, cutoff_override=cutoff)
    rows_hi = run_sweep(cfg, cutoff_override=doubled)
    d_ent = 0.0
    d_coh = 0.0
    for lo, hi in zip(rows_lo, rows_hi):
        if lo.entanglement is not None and hi.entanglement is not None:
            d_ent = max(d_ent, abs(lo.entanglement - hi.entanglement))
        if lo.coherence_norm is not None and hi.coherence_norm is not None:
            d_coh = max(d_coh, abs(lo.coherence_norm - hi.coherence_norm))
    return ConvergenceReport(
        cutoff=cutoff,
        doubled_cutoff=doubled,
        max_abs_d_entanglement=d_ent,
        max_abs_d_coherence=d_coh,
        points=len(rows_lo),
    )
