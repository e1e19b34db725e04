"""Time-dependent pure-dephasing evolution engine.

A Hamiltonian that commutes with a fixed system (pointer) basis at all times
acts on the environment through one Hermitian generator per pointer state.
With piecewise-constant generators the time-ordered evolution factorizes into
per-segment exponentials: the conditional propagator for pointer state i at a
time inside segment k is

    w_i(t) = exp(-i V_i^(k) tau) . exp(-i V_i^(k-1) d_{k-1}) ... exp(-i V_i^(0) d_0)

with hbar = 1, d_m the segment durations and tau the elapsed time inside
segment k. Segment exponentials are evaluated through the eigendecomposition
of each (Hermitian) generator, which is exact for constant segments and keeps
every propagator unitary to roundoff.

The joint state never needs to be formed during evolution: it is carried as
the pointer amplitudes c_i plus the environment blocks

    R_ij(t) = w_i(t) R(0) w_j(t)^dag,

from which the full density matrix, reduced coherences and entanglement
quantities are assembled on demand. With R(0) = A A^dag factored (A is d x r),
every block is R_ij = Y_i Y_j^dag with Y_i = w_i A, and evolve_factor steps
the d x r factors without forming any d x d propagator.

evolve_factor is the only routine that steps through the segments;
propagators_at is that routine with A = I. Schedules are immutable after
construction and may be shared across workers; the memoized per-segment
eigensystems are computed on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySchedule,
    InvalidArgument,
    NotHermitianGenerator,
    NotNormalizedError,
    TimeOutOfRange,
)
from .linalg import dagger, frobenius, hermiticity_residual

__all__ = [
    "Segment",
    "SegmentSchedule",
    "ScheduleDiagnostics",
    "ConditionalPropagatorSet",
    "JointStateBlocks",
    "equal_superposition",
    "validate_schedule",
    "propagators_at",
    "evolve_factor",
    "blocks_from_propagators",
    "blocks_at",
    "joint_state",
]

_BOUNDARY_SNAP = 1e-12


def equal_superposition(n: int) -> np.ndarray:
    """Pointer amplitudes (1, ..., 1)/sqrt(n)."""
    return np.full(n, 1.0 / np.sqrt(n), dtype=complex)


@dataclass(frozen=True, eq=False)
class Segment:
    """One piecewise-constant interval: a duration plus one generator per pointer state."""

    duration: float
    generators: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.duration > 0:
            raise InvalidArgument(f"segment duration must be > 0, got {self.duration}")
        gens = []
        for g in self.generators:
            arr = np.ascontiguousarray(g, dtype=complex)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise InvalidArgument(f"generator has shape {arr.shape}, expected square")
            arr.setflags(write=False)
            gens.append(arr)
        if not gens:
            raise InvalidArgument("segment needs at least one generator")
        if len({g.shape for g in gens}) != 1:
            raise DimensionMismatch("generators within a segment differ in dimension")
        object.__setattr__(self, "generators", tuple(gens))


@dataclass(frozen=True, eq=False)
class SegmentSchedule:
    """Ordered piecewise-constant schedule for an N-pointer system.

    Structural consistency (dimensions, positive durations) is enforced here;
    Hermiticity of the generators is checked by validate_schedule so that
    deliberately broken schedules can still be constructed for diagnostics.
    """

    system_dim: int
    env_dim: int
    segments: tuple[Segment, ...]

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        for idx, seg in enumerate(self.segments):
            if len(seg.generators) != self.system_dim:
                raise DimensionMismatch(
                    f"segment {idx} has {len(seg.generators)} generators, "
                    f"expected {self.system_dim}"
                )
            if seg.generators[0].shape != (self.env_dim, self.env_dim):
                raise DimensionMismatch(
                    f"segment {idx} generators act on dimension "
                    f"{seg.generators[0].shape[0]}, expected {self.env_dim}"
                )

    @property
    def total_duration(self) -> float:
        return float(sum(seg.duration for seg in self.segments))

    @cached_property
    def boundaries(self) -> np.ndarray:
        """Cumulative segment start times, ending with the total duration."""
        return np.concatenate(([0.0], np.cumsum([s.duration for s in self.segments])))

    @cached_property
    def _eigensystems(self):
        """Per segment, per pointer: (eigenvalues, eigenvectors) of each generator."""
        systems = []
        for seg in self.segments:
            pairs = []
            for g in seg.generators:
                w, u = np.linalg.eigh((g + dagger(g)) / 2)
                pairs.append((w, u))
            systems.append(pairs)
        return systems


def _eig_phase(w: np.ndarray, u: np.ndarray, tau: float, b: np.ndarray) -> np.ndarray:
    """exp(-i V tau) U b for b already in the eigenbasis of V = U diag(w) U^dag."""
    return u @ (np.exp(-1j * w * tau)[:, None] * b)


@dataclass(frozen=True)
class ScheduleDiagnostics:
    """Structural report from validate_schedule."""

    segment_count: int
    total_duration: float
    hermiticity_residuals: np.ndarray  # (segments, system_dim)

    @property
    def max_residual(self) -> float:
        return float(self.hermiticity_residuals.max())


def validate_schedule(schedule: SegmentSchedule, *, herm_tol: float = 1e-9) -> ScheduleDiagnostics:
    """Check the pure-dephasing form of a schedule.

    The factorized structure (fixed pointer basis, generators acting only on
    the environment) holds by construction; what remains to verify is that
    every generator is Hermitian, so that each conditional propagator is
    unitary.
    """
    if not schedule.segments:
        raise EmptySchedule("schedule has no segments")
    residuals = np.array(
        [
            [hermiticity_residual(g) / max(1.0, frobenius(g)) for g in seg.generators]
            for seg in schedule.segments
        ]
    )
    worst = np.unravel_index(np.argmax(residuals), residuals.shape)
    # not "> herm_tol": a NaN residual (inf/inf past ~1e154) must fail too
    if not residuals[worst] <= herm_tol:
        raise NotHermitianGenerator(
            f"generator {worst[1]} of segment {worst[0]} has relative "
            f"anti-Hermitian residual {residuals[worst]:.3e}"
        )
    return ScheduleDiagnostics(
        segment_count=len(schedule.segments),
        total_duration=schedule.total_duration,
        hermiticity_residuals=residuals,
    )


@dataclass(frozen=True, eq=False)
class ConditionalPropagatorSet:
    """The environment unitaries w_i(t), one per pointer state, at one time."""

    t: float
    w: tuple[np.ndarray, ...]

    @property
    def system_dim(self) -> int:
        return len(self.w)


def _locate(schedule: SegmentSchedule, t: float) -> tuple[int, float]:
    """Segment index containing t and the elapsed time inside it."""
    bounds = schedule.boundaries
    total = bounds[-1]
    snap = _BOUNDARY_SNAP * max(1.0, total)
    if t < -snap or t > total + snap:
        raise TimeOutOfRange(f"t = {t} outside the schedule range [0, {total}]")
    t = min(max(t, 0.0), total)
    k = int(np.searchsorted(bounds, t, side="right") - 1)
    k = min(k, len(schedule.segments) - 1)
    tau = t - bounds[k]
    if tau < snap:
        tau = 0.0
    return k, tau


def propagators_at(schedule: SegmentSchedule, t: float) -> ConditionalPropagatorSet:
    """Conditional propagators w_i(t), ordered right-to-left earliest-first.

    This is evolve_factor with A = I; a sweep over many times should step its
    factor through evolve_factor once instead of calling this per time.
    """
    eye = np.eye(schedule.env_dim, dtype=complex)
    return ConditionalPropagatorSet(t=t, w=next(evolve_factor(schedule, eye, [t])))


def evolve_factor(schedule: SegmentSchedule, a: np.ndarray, times):
    """Yield (w_0(t) A, ..., w_{N-1}(t) A) for each t in times; A is d x r.

    This is the only routine that steps through the segments. U_ki^dag
    w_i(start of segment k) A is cached per segment and pointer for the life
    of the generator, filled only up to the latest segment a time has needed,
    so a time costs one d x d by d x r product per pointer.
    """
    if not schedule.segments:
        raise EmptySchedule("schedule has no segments")
    if a.shape[0] != schedule.env_dim:
        raise DimensionMismatch(f"factor has {a.shape[0]} rows, expected {schedule.env_dim}")
    systems = schedule._eigensystems
    rotated = []  # rotated[k][i] = U_ki^dag w_i(start of k) A
    for t in times:
        k, tau = _locate(schedule, t)
        while len(rotated) <= k:
            m = len(rotated)
            if m == 0:
                start = [a] * schedule.system_dim
            else:  # w_i(start of m) A: step across the whole of segment m - 1
                duration = schedule.segments[m - 1].duration
                start = [
                    _eig_phase(w, u, duration, b) for (w, u), b in zip(systems[m - 1], rotated[-1])
                ]
            rotated.append([dagger(u) @ y for (_, u), y in zip(systems[m], start)])
        yield tuple(_eig_phase(w, u, tau, b) for (w, u), b in zip(systems[k], rotated[k]))


@dataclass(frozen=True, eq=False)
class JointStateBlocks:
    """Factored joint state: pointer amplitudes plus blocks R_ij(t).

    blocks has shape (N, N, d, d) with R_ji = R_ij^dag; the diagonal blocks
    are the conditional environment states.
    """

    c: np.ndarray
    blocks: np.ndarray

    @property
    def system_dim(self) -> int:
        return len(self.c)

    @property
    def env_dim(self) -> int:
        return self.blocks.shape[-1]


def _check_amplitudes(c, n: int | None = None) -> np.ndarray:
    arr = np.asarray(c, dtype=complex).reshape(-1)
    if n is not None and arr.size != n:
        raise DimensionMismatch(f"{arr.size} pointer amplitudes, expected {n}")
    norm_sq = float(np.sum(np.abs(arr) ** 2))
    if abs(norm_sq - 1.0) > 1e-10:
        raise NotNormalizedError(f"pointer amplitudes have |c|^2 = {norm_sq!r}, expected 1")
    return arr


def blocks_from_propagators(props: ConditionalPropagatorSet, env0, c) -> JointStateBlocks:
    """Blocks R_ij = w_i R(0) w_j^dag from precomputed propagators."""
    n = props.system_dim
    amps = _check_amplitudes(c, n)
    rho0 = env0.matrix
    if rho0.shape != props.w[0].shape:
        raise DimensionMismatch(
            f"environment state dimension {rho0.shape[0]} does not match "
            f"propagator dimension {props.w[0].shape[0]}"
        )
    half = [wi @ rho0 for wi in props.w]
    dim = rho0.shape[0]
    blocks = np.empty((n, n, dim, dim), dtype=complex)
    for i in range(n):
        for j in range(i, n):
            blocks[i, j] = half[i] @ dagger(props.w[j])
            if j > i:
                blocks[j, i] = dagger(blocks[i, j])
    return JointStateBlocks(c=amps, blocks=blocks)


def blocks_at(schedule: SegmentSchedule, env0, c, t: float) -> JointStateBlocks:
    """Joint-state blocks at time t for a product initial state."""
    if env0.dim != schedule.env_dim:
        raise DimensionMismatch(
            f"environment state dimension {env0.dim} does not match schedule "
            f"dimension {schedule.env_dim}"
        )
    return blocks_from_propagators(propagators_at(schedule, t), env0, c)


def joint_state(blocks: JointStateBlocks) -> np.ndarray:
    """Assemble the full system-environment density matrix from its blocks."""
    n, d = blocks.system_dim, blocks.env_dim
    c = blocks.c
    out = np.empty((n * d, n * d), dtype=complex)
    for i in range(n):
        for j in range(n):
            out[i * d : (i + 1) * d, j * d : (j + 1) * d] = (
                c[i] * c[j].conjugate()
            ) * blocks.blocks[i, j]
    return out
