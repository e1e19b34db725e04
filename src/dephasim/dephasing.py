"""Time-dependent pure-dephasing evolution engine.

A Hamiltonian that commutes with a fixed system (pointer) basis at all times
acts on the environment through one Hermitian generator per pointer state.
With piecewise-constant generators the time-ordered evolution factorizes into
per-segment exponentials: the conditional propagator for pointer state i at a
time inside segment k is

    w_i(t) = exp(-i V_i^(k) tau) . exp(-i V_i^(k-1) d_{k-1}) ... exp(-i V_i^(0) d_0)

with hbar = 1, d_m the segment durations and tau the elapsed time inside
segment k. Segment exponentials are evaluated through the eigendecomposition
V = U diag(w) U^dag of each (Hermitian) generator, which is exact for
constant segments and keeps every propagator unitary to roundoff.

The joint state never needs to be formed during evolution: it is carried as
the pointer amplitudes c_i plus the environment blocks

    R_ij(t) = w_i(t) R(0) w_j(t)^dag,

from which the full density matrix, reduced coherences and entanglement
quantities are assembled on demand. With R(0) = A A^dag factored (A is d x r),
every block is R_ij = Y_i Y_j^dag with Y_i = w_i A.

segment_chunks is the only routine that steps through the segments: with
B_i = U_ki^dag w_i(start of k) A, formed once per segment k, a chunk of its
times is evaluated as Y_i = U_ki exp(-i w_ki tau) B_i in one stack.
Schedules are immutable and may be shared across workers; the eigensystems
are computed on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    EmptySchedule,
    InvalidArgument,
    NotHermitianGenerator,
    NotNormalizedError,
    TimeOutOfRange,
)
from .linalg import HERM_TOL, NORM_TOL, dagger, hermiticity_residual

__all__ = [
    "Segment",
    "SegmentSchedule",
    "JointStateBlocks",
    "equal_superposition",
    "validate_schedule",
    "propagators_at",
    "segment_chunks",
    "evolve_factor",
    "blocks_from_propagators",
    "blocks_at",
    "joint_state",
]

_BOUNDARY_SNAP = 1e-12
CHUNK_BYTES = 1 << 18  # all pointers' stacks of one segment_chunks chunk


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
        """Per segment, per pointer: (eigenvalues, eigenvectors) of each generator.

        Minus generator 0 (both qubit-boson branches) reuses (-w, u), the same u.
        """
        systems = []
        try:
            for seg in self.segments:
                g0, *rest = seg.generators
                w0, u0 = np.linalg.eigh((g0 + dagger(g0)) / 2)
                systems.append([(w0, u0)] + [
                    (-w0, u0) if np.array_equal(g, -g0) else np.linalg.eigh((g + dagger(g)) / 2)
                    for g in rest
                ])
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(
                f"eigh of a generator of segment {len(systems)} did not converge: {exc}"
            ) from exc
        return systems


def _phased(w: np.ndarray, tau: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (T, d, r) stack of exp(-i diag(w) tau) b over the times tau."""
    return np.exp(-1j * w * tau[:, None])[:, :, None] * b


def validate_schedule(schedule: SegmentSchedule) -> np.ndarray:
    """Check the pure-dephasing form of a schedule; return its (segments, N) residuals.

    The factorized structure (fixed pointer basis, generators acting only on
    the environment) holds by construction; what remains to verify is that
    every generator is Hermitian, so that each conditional propagator is
    unitary. Entry [k, i] is hermiticity_residual of generator i of segment k.
    """
    if not schedule.segments:
        raise EmptySchedule("schedule has no segments")
    residuals = np.array(
        [[hermiticity_residual(g) for g in seg.generators] for seg in schedule.segments]
    )
    worst = np.unravel_index(np.argmax(residuals), residuals.shape)
    if not residuals[worst] <= HERM_TOL:  # a NaN residual must fail too
        raise NotHermitianGenerator(
            f"generator {worst[1]} of segment {worst[0]} has relative "
            f"anti-Hermitian residual {residuals[worst]:.3e}"
        )
    return residuals


def _locate(schedule: SegmentSchedule, times) -> tuple[np.ndarray, np.ndarray]:
    """Segment index of each time and the elapsed time inside it."""
    t = np.asarray(times, dtype=float).reshape(-1)
    bounds = schedule.boundaries
    total = bounds[-1]
    snap = _BOUNDARY_SNAP * max(1.0, total)
    outside = ~((t >= -snap) & (t <= total + snap))  # NaN is outside too
    if outside.any():
        raise TimeOutOfRange(f"t = {t[outside][0]} outside the schedule range [0, {total}]")
    t = np.clip(t, 0.0, total)
    k = np.minimum(np.searchsorted(bounds, t, side="right") - 1, len(schedule.segments) - 1)
    tau = t - bounds[k]
    tau[tau < snap] = 0.0
    return k, tau


def propagators_at(schedule: SegmentSchedule, t: float) -> tuple[np.ndarray, ...]:
    """Conditional propagators (w_0(t), ..., w_{N-1}(t)): evolve_factor with A = I."""
    return next(evolve_factor(schedule, np.eye(schedule.env_dim, dtype=complex), [t]))


def segment_chunks(schedule: SegmentSchedule, a: np.ndarray, times, *, frame: bool = False):
    """Yield (index of the first time, stacks) for each chunk of times, in order.

    A chunk is a run of times inside one segment holding at most CHUNK_BYTES
    of stacks: stacks[i] is the (T, d, r) stack of w_i(t) A. With frame=True
    it is V^dag w_i A for V = U_k0 exp(-i w_k0 tau), one unitary for all
    pointers, which keeps Gram matrices and spectra: stacks[0] is B_0, a
    pointer sharing the eigenvectors of pointer 0 costs only the phase
    exp(-i (w_i - w_0) tau), any other the fixed frame M_i = U_k0^dag U_ki.
    """
    if not schedule.segments:
        raise EmptySchedule("schedule has no segments")
    if a.shape[0] != schedule.env_dim:
        raise DimensionMismatch(f"factor has {a.shape[0]} rows, expected {schedule.env_dim}")
    ks, taus = _locate(schedule, times)
    systems = schedule._eigensystems
    chunk = max(1, CHUNK_BYTES // (16 * a.size * schedule.system_dim))
    rotated = []  # rotated[k][i] = B_i of segment k = U_ki^dag w_i(start of k) A

    def factors(k: int, tau: np.ndarray) -> list[np.ndarray]:
        return [u @ _phased(w, tau, b) for (w, u), b in zip(systems[k], rotated[k])]

    starts = np.flatnonzero(np.diff(ks, prepend=-1)).tolist()  # of each run of equal k
    for lo, hi in zip(starts, [*starts[1:], len(ks)]):
        k = int(ks[lo])
        while len(rotated) <= k:
            m = len(rotated)
            start = [a] * schedule.system_dim
            if m:  # w_i(start of m) A: the factors at the end of segment m - 1
                end = np.array([schedule.segments[m - 1].duration])
                start = [y[0] for y in factors(m - 1, end)]
            rotated.append([dagger(u) @ y for (_, u), y in zip(systems[m], start)])
        w0, u0 = systems[k][0]
        frames = [None if u is u0 else dagger(u0) @ u for _, u in systems[k][1:]] if frame else ()
        for first in range(lo, hi, chunk):
            tau = taus[first : min(first + chunk, hi)]
            if not frame:
                yield first, factors(k, tau)
                continue
            yield first, [np.broadcast_to(rotated[k][0], (len(tau), *a.shape))] + [
                _phased(w - w0, tau, b) if m is None else _phased(-w0, tau, m @ _phased(w, tau, b))
                for (w, _), b, m in zip(systems[k][1:], rotated[k][1:], frames)
            ]


def evolve_factor(schedule: SegmentSchedule, a: np.ndarray, times):
    """Yield (w_0(t) A, ..., w_{N-1}(t) A) for each t in times; A is d x r."""
    for _, stacks in segment_chunks(schedule, a, times):
        yield from zip(*stacks)


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
    if not abs(norm_sq - 1.0) <= NORM_TOL:  # a NaN amplitude must fail too
        raise NotNormalizedError(f"pointer amplitudes have |c|^2 = {norm_sq!r}, expected 1")
    return arr


def blocks_from_propagators(w, env0, c) -> JointStateBlocks:
    """Blocks R_ij = w_i R(0) w_j^dag from the propagators w = (w_0, ..., w_{N-1})."""
    n = len(w)
    amps = _check_amplitudes(c, n)
    rho0 = env0.matrix
    if rho0.shape != w[0].shape:
        raise DimensionMismatch(
            f"environment state dimension {rho0.shape[0]} does not match "
            f"propagator dimension {w[0].shape[0]}"
        )
    half = [wi @ rho0 for wi in w]
    dim = rho0.shape[0]
    blocks = np.empty((n, n, dim, dim), dtype=complex)
    for i in range(n):
        for j in range(i, n):
            blocks[i, j] = half[i] @ dagger(w[j])
            if j > i:
                blocks[j, i] = dagger(blocks[i, j])
    return JointStateBlocks(c=amps, blocks=blocks)


def blocks_at(schedule: SegmentSchedule, env0, c, t: float) -> JointStateBlocks:
    """Joint-state blocks at time t for a product initial state."""
    return blocks_from_propagators(propagators_at(schedule, t), env0, c)


def joint_state(blocks: JointStateBlocks) -> np.ndarray:
    """Assemble the full system-environment density matrix from its blocks."""
    n, d = blocks.system_dim, blocks.env_dim
    weighted = np.outer(blocks.c, blocks.c.conj())[:, :, None, None] * blocks.blocks
    return weighted.transpose(0, 2, 1, 3).reshape(n * d, n * d)
