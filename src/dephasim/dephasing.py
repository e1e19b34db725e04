"""Time-dependent pure-dephasing evolution engine.

A Hamiltonian that commutes with a fixed system (pointer) basis at all times
acts on the environment through one Hermitian generator per pointer state.
With piecewise-constant generators the time-ordered evolution factorizes into
per-segment exponentials: the conditional propagator for pointer state i at a
time inside segment k is

    w_i(t) = exp(-i V_i^(k) tau) . exp(-i V_i^(k-1) d_{k-1}) ... exp(-i V_i^(0) d_0)

with hbar = 1, d_m the segment durations and tau the elapsed time inside
segment k. Segment exponentials are evaluated through the eigendecomposition
V = U diag(w) U^dag of each generator's Hermitian part, which is exact for
constant segments and keeps every propagator unitary to roundoff. linalg.eigh
reads two structures that cost less: a diagonal generator (an undriven
qubit-boson step) is its diagonal with U = I, held as None, no matrix at all,
so it costs neither an eigensolve nor a d x d product; a tridiagonal one (a
driven step) is gauged to a real symmetric matrix by a diagonal unitary and
solved in real arithmetic, its U = diag(phi) Q held as the pair (phi, Q),
never formed (linalg.rotate applies it). A Segment reads each generator's
structure once, when built, and holds one value per generator: the three
bands of a tridiagonal one, else the matrix, which eigh, the eigensystem
cache and validate_schedule take as it is.

The joint state never needs to be formed during evolution: it is carried as
the pointer amplitudes c_i plus the environment blocks

    R_ij(t) = w_i(t) R(0) w_j(t)^dag,

from which the full density matrix, reduced coherences and entanglement
quantities are assembled on demand. With R(0) = A A^dag factored (A is d x r),
every block is R_ij = Y_i Y_j^dag with Y_i = w_i A.

segment_chunks is the only routine that steps through the segments, and
propagators_at reads its stacks of A = I. It holds one step, that of segment
k: the (w_ki, U_ki, B_i) of every pointer, B_i = U_ki^dag w_i(start of k) A,
built from step k - 1, and yields each chunk of k's times (by segment, then
by index) with its stacks, all finite and within linalg.CHUNK_BYTES:
Y_i = U_ki exp(-i w_ki tau) B_i (_stacks), each product with U_ki or U_ki^dag
taken by linalg.rotate, the only reader of an eigenbasis. In the frame of
pointer 0, when all pointers share its eigenvectors (every qubit-boson
segment; diagonal generators share U = I whatever the order of their
eigenvalues), the stacks drop U and the chunk comes with that frame: the
phases w_ki - w_k0 and the B_i over the d_k rows that hold weight (the
lightest, at most ROW_TAIL^2 of sum_i ||B_i||^2, are cut, which moves outputs
by O(ROW_TAIL); fig2d carries 70/102/115 at cutoff 256). A segment whose
pointers do not share those eigenvectors takes the unframed stacks over all
d rows. Schedules are immutable and may be shared across workers; the
eigensystems are computed on first use, one per distinct generator.
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
    NonFiniteError,
    NotHermitianGenerator,
    NotNormalizedError,
    TimeOutOfRange,
)
from .linalg import CHUNK_BYTES, HERM_TOL, NORM_TOL, _bands, _tridiagonal, dagger, eigh
from .linalg import hermiticity_residual, rotate

__all__ = [
    "Segment",
    "SegmentSchedule",
    "JointStateBlocks",
    "equal_superposition",
    "validate_schedule",
    "propagators_at",
    "segment_chunks",
    "blocks_from_propagators",
    "blocks_at",
    "joint_state",
]

ROW_TAIL = 1e-18  # frame stacks drop rows holding at most ROW_TAIL^2 of the weight


def equal_superposition(n: int) -> np.ndarray:
    """Pointer amplitudes (1, ..., 1)/sqrt(n)."""
    return np.full(n, 1.0 / np.sqrt(n), dtype=complex)


@dataclass(frozen=True, eq=False, init=False)
class Segment:
    """One piecewise-constant interval: a duration plus one generator per pointer state.

    A generator is a matrix or the (diagonal, sub-, super-diagonal) tuple of
    a tridiagonal one. _held has read-only complex copies, never the caller's
    arrays, of the triple of each tridiagonal generator (no d x d matrix) and
    of any other matrix.
    """

    duration: float
    dim: int
    _held: tuple

    def __init__(self, duration: float, generators):
        if not duration > 0:
            raise InvalidArgument(f"segment duration must be > 0, got {duration}")
        held = tuple(map(_as_held, generators))
        dims = {len(h[0]) if isinstance(h, tuple) else len(h) for h in held}
        if len(dims) != 1:
            raise (DimensionMismatch("generators within a segment differ in dimension") if dims
                   else InvalidArgument("segment needs at least one generator"))
        for x in (x for h in held for x in (h if isinstance(h, tuple) else (h,))):
            x.setflags(write=False)
        vars(self).update(duration=duration, dim=dims.pop(), _held=held)  # frozen: no setattr


def _as_held(g):
    """Complex copies of the bands of g, a triple or a tridiagonal matrix, else of the matrix g."""
    if not isinstance(g, tuple):
        m = np.asarray(g, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or not len(m):
            raise InvalidArgument(f"generator has shape {m.shape}, expected square and nonempty")
        g = _bands(m)
        if g is None:
            return np.array(m, order="C")
    bands = tuple(np.array(x, dtype=complex) for x in g)
    shapes, d = [x.shape for x in bands], bands[0].size if bands else 0
    if shapes != [(d,), (d - 1,), (d - 1,)]:
        raise InvalidArgument(f"generator bands have shapes {shapes}, expected d, d - 1, d - 1")
    return bands


@dataclass(frozen=True, eq=False)
class SegmentSchedule:
    """Ordered piecewise-constant schedule for an N-pointer system.

    Built only if valid, so any that exists may be evolved: a segment at least,
    matching dimensions, durations with a finite sum, validate_schedule passed.
    """

    system_dim: int
    env_dim: int
    segments: tuple[Segment, ...]

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise EmptySchedule("schedule has no segments")
        for idx, seg in enumerate(self.segments):
            if len(seg._held) != self.system_dim:
                raise DimensionMismatch(
                    f"segment {idx} has {len(seg._held)} generators, expected {self.system_dim}"
                )
            if seg.dim != self.env_dim:
                raise DimensionMismatch(
                    f"segment {idx} generators act on dimension {seg.dim}, expected {self.env_dim}"
                )
        with np.errstate(over="ignore"):  # durations summing past the float range read inf
            total = self.total_duration
        if not np.isfinite(total):
            raise InvalidArgument(f"segment durations sum to {total}, past the float range")
        validate_schedule(self)

    @property
    def total_duration(self) -> float:
        return float(self.boundaries[-1])

    @property
    def boundary_slack(self) -> float:
        """1e-12 max(1, total duration): how far past an inner boundary or the end a time snaps."""
        return 1e-12 * max(1.0, self.total_duration)

    @cached_property
    def boundaries(self) -> np.ndarray:
        """Cumulative segment start times, ending with the total duration."""
        return np.concatenate(([0.0], np.cumsum([s.duration for s in self.segments])))

    @cached_property
    def _eigensystems(self):
        """Per segment, per pointer: linalg.eigh (w, u) of each generator's Hermitian part.

        A diagonal generator (an undriven step) is (its real diagonal, None),
        with no d x d matrix formed or multiplied; a tridiagonal one (a driven
        qubit-boson step) has u = (phi, Q), U = diag(phi) Q, applied by
        linalg.rotate. _solve solves each distinct generator once: -V_0 (both
        qubit-boson branches) and a repeated step reuse an earlier u.
        """
        solved, systems = {}, []
        try:
            for seg in self.segments:
                systems.append([_solve(g, solved) for g in seg._held])
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(
                f"eigh of a generator of segment {len(systems)} did not converge: {exc}"
            ) from exc
        return systems


def _solve(g, solved: dict):
    """eigh(g) once per key, the bytes of the held bands or matrix g; -g gets (-w, u)."""
    parts = g if isinstance(g, tuple) else (g,)
    key = b"".join((x + 0.0).tobytes() for x in parts)  # + 0.0: -0.0 keys as 0.0
    if key not in solved:
        w, u = solved[key] = eigh(g)
        solved.setdefault(b"".join((0.0 - x).tobytes() for x in parts), (-w, u))
    return solved[key]


@np.errstate(over="ignore", invalid="ignore")  # a phase w tau past the float range reads NaN
def _stacks(step, tau: np.ndarray) -> list[np.ndarray]:
    """The (T, d, r) stacks U exp(-i diag(w) tau) B over the times tau, one per (w, U, B) of step.

    U is applied by linalg.rotate, and a w of None is no phase: B broadcast over the times.
    """
    stacks = []
    for w, u, b in step:
        if w is None:
            y = np.broadcast_to(b, (len(tau), *b.shape))
        else:
            y = np.exp(-1j * w * tau[:, None])[:, :, None] * b
        stacks.append(rotate(u, y))
    return stacks


def validate_schedule(schedule: SegmentSchedule) -> np.ndarray:
    """The (segments, N) residuals of a schedule's generators, each at most HERM_TOL.

    SegmentSchedule runs this check when it is built: NonFiniteError or
    NotHermitianGenerator unless every generator is finite and Hermitian, so
    that each conditional propagator is unitary. Entry [k, i] is
    hermiticity_residual of generator i of segment k.
    """
    residuals = np.array([[hermiticity_residual(g) for g in s._held] for s in schedule.segments])
    worst = np.unravel_index(np.argmax(residuals), residuals.shape)  # the first NaN if any
    if not residuals[worst] <= HERM_TOL:  # a NaN residual must fail too
        held = schedule.segments[worst[0]]._held[worst[1]]
        bad = np.argwhere(~np.isfinite(_tridiagonal(*held) if isinstance(held, tuple) else held))
        if len(bad):
            raise NonFiniteError(
                f"generator {worst[1]} of segment {worst[0]} has {len(bad)} non-finite "
                f"entries, the first at {tuple(bad[0].tolist())}"
            )
        raise NotHermitianGenerator(
            f"generator {worst[1]} of segment {worst[0]} has relative "
            f"anti-Hermitian residual {residuals[worst]:.3e}"
        )
    return residuals


def _locate(schedule: SegmentSchedule, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segment index of each time of the float vector t and the elapsed time inside it."""
    bounds = schedule.boundaries
    total = bounds[-1]
    snap = schedule.boundary_slack
    outside = ~((t >= 0.0) & (t <= total + snap))  # NaN is outside too; -0.0 is not
    if outside.any():
        raise TimeOutOfRange(f"t = {t[outside][0]} outside the schedule range [0, {total}]")
    t = np.clip(t, 0.0, total)
    k = np.minimum(np.searchsorted(bounds, t, side="right") - 1, len(schedule.segments) - 1)
    tau = t - bounds[k]
    tau[tau < snap] = 0.0
    return k, tau


def propagators_at(schedule: SegmentSchedule, t: float) -> tuple[np.ndarray, ...]:
    """Conditional propagators (w_0(t), ..., w_{N-1}(t)); NonFiniteError if one is not finite."""
    *_, stacks = next(segment_chunks(schedule, np.eye(schedule.env_dim, dtype=complex), [t]))
    return tuple(y[0] for y in stacks)


def segment_chunks(schedule: SegmentSchedule, a: np.ndarray, times, *, frame: bool = False,
                   points: int = 0):
    """Yield (index of the first time, frame, tau, stacks) for each chunk of times.

    The times inside one segment form a run, split into even chunks of at most
    CHUNK_BYTES of stacks, fewer and longer where points asks for at least
    min(points, run) times each; chunks come by ascending segment, by index
    within one (nondecreasing times: in order), and tau holds their elapsed
    times. stacks[i] is the (T, d, r) stack of w_i(t) A, finite, or
    NonFiniteError names the first time where one is not. With frame=True it
    is V^dag w_i A for a unitary V shared by all pointers, which keeps Gram
    matrices and spectra. In a segment whose pointers all share the
    eigenvectors of pointer 0 (U_ki is U_k0, or every generator is diagonal
    and U_ki = I), V = U_k0 exp(-i w_k0 tau) and stacks[i] = exp(-i w tau) B
    for the (w, B) of frame[i], one frame object for every chunk of the run:
    w = w_ki - w_k0 (None for pointer 0, whose stack is B_0 at every time)
    and B = B_i on the d_k rows kept. The lightest rows by sum_i ||B_i[k, :]||^2,
    constant over the segment, drop while they hold at most ROW_TAIL^2 of the
    total (none if it is not finite), so Y_i^dag Y_j moves by at most
    ROW_TAIL^2, and a a^dag - b b^dag and Z Z^dag by about 2 ROW_TAIL in trace
    norm. A phase that is not finite on a dropped row still raises
    NonFiniteError at that time, as if the row were kept. Any other segment
    takes V = I, the unframed stacks of frame=False, and frame is None.
    """
    if a.shape[0] != schedule.env_dim or not a.shape[1]:
        raise DimensionMismatch(f"factor has shape {a.shape}, expected ({schedule.env_dim}, r > 0)")
    ts = np.asarray(times, dtype=float).reshape(-1)
    ks, taus = _locate(schedule, ts)
    systems = schedule._eigensystems
    count = max(1, CHUNK_BYTES // (16 * a.size * schedule.system_dim))  # points in CHUNK_BYTES
    starts = np.flatnonzero(np.diff(ks, prepend=-1)).tolist()  # of each run of equal k
    runs = zip(ks[starts].tolist(), starts, [*starts[1:], len(ks)])
    built, step = -1, [(None, None, a)] * schedule.system_dim  # before segment 0: w_i = I
    for k, lo, hi in sorted(runs):  # by segment, then by index
        for m in range(built + 1, k + 1):  # step m from step m - 1, which is dropped
            end = np.array([schedule.segments[m - 1].duration])  # for m = 0, a tau of no phase
            start = [y[0] for y in _stacks(step, end)]  # w_i(start of segment m) A
            step = [(w, u, rotate(u, y, adjoint=True)) for (w, u), y in zip(systems[m], start)]
        built, held, shared = k, step, None
        (w0, u0, b0), *rest = step
        if frame and all(u is u0 for _, u, _ in rest):  # the shared frame V
            weight = np.sum(np.abs(np.concatenate([b for _, _, b in step], axis=1)) ** 2, axis=1)
            order, tail = np.argsort(weight), ROW_TAIL**2 * weight.sum()
            # the lightest rows hold at most tail in all; none drop if it is not finite
            light = np.count_nonzero(np.cumsum(weight[order]) <= tail) if np.isfinite(tail) else 0
            rows = np.sort(order[light:])
            with np.errstate(over="ignore", invalid="ignore"):  # a phase past the float range
                shifted = [(w - w0, b) for w, _, b in rest]
                spread = max((np.abs(s).max() for s, _ in shifted), default=0.0)
                # a phase that is not finite on a dropped row still makes the stacks NaN
                taus[lo:hi] = np.where(np.isfinite(spread * taus[lo:hi]), taus[lo:hi], np.nan)
            shared = [(None, b0[rows])] + [(s[rows], b[rows]) for s, b in shifted]
            held = [(w, None, b) for w, b in shared]
        parts = max(1, min(-(-(hi - lo) // count), (hi - lo) // max(points, 1)))
        cuts = [lo + (hi - lo) * j // parts for j in range(parts + 1)]
        for first, last in zip(cuts, cuts[1:]):
            tau = taus[first:last]
            stacks = _stacks(held, tau)
            finite = np.logical_and.reduce([np.isfinite(s).all(axis=(1, 2)) for s in stacks])
            if not finite.all():
                bad = float(ts[first + np.argmin(finite)])
                raise NonFiniteError(f"evolved state is not finite at t = {bad!r}")
            yield first, shared, tau, stacks


@dataclass(frozen=True, eq=False)
class JointStateBlocks:
    """Factored joint state: pointer amplitudes plus blocks R_ij(t).

    blocks has shape (N, N, d, d) with R_ji = R_ij^dag; the diagonal blocks
    are the conditional environment states.
    """

    c: np.ndarray
    blocks: np.ndarray


def _checked_amplitudes(c, n: int) -> np.ndarray:
    """c as a complex vector of n pointer amplitudes with |c|^2 = 1 within NORM_TOL."""
    amps = np.asarray(c, dtype=complex).reshape(-1)
    if amps.size != n:
        raise DimensionMismatch(f"{amps.size} pointer amplitudes, expected {n}")
    with np.errstate(over="ignore"):  # |c_i|^2 past the float range reads inf and fails
        norm_sq = float(np.sum(np.abs(amps) ** 2))
    if not abs(norm_sq - 1.0) <= NORM_TOL:  # a NaN amplitude must fail too
        raise NotNormalizedError(f"pointer amplitudes have |c|^2 = {norm_sq!r}, expected 1")
    return amps


def blocks_from_propagators(w, env0, c) -> JointStateBlocks:
    """Blocks R_ij = w_i R(0) w_j^dag from the propagators w = (w_0, ..., w_{N-1})."""
    n = len(w)
    amps = _checked_amplitudes(c, n)
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
    n, _, d, _ = blocks.blocks.shape
    weighted = np.outer(blocks.c, blocks.c.conj())[:, :, None, None] * blocks.blocks
    return weighted.transpose(0, 2, 1, 3).reshape(n * d, n * d)
